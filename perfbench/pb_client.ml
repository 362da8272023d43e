(* The load process's side of a served workload: it execs the shipped
   [trollc serve], drives closed-loop pipelined connections over its
   Unix socket from one thread with [select], and reads the server's
   counters through the public [stats] op. *)

open Pb_stats

let fail fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)
(* ------------------------------------------------------------------ *)

(* every child still running; killed and reaped on any exit path *)
let children : int list ref = ref []

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let st = wait () in
  children := List.filter (( <> ) pid) !children;
  st

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (reap pid) with Unix.Unix_error (Unix.ECHILD, _, _) -> ())
    !children

let spawn ?(stdout_file = "/dev/null") ~log prog args =
  let out = Unix.openfile stdout_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let inp = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) inp out err in
  List.iter Unix.close [ out; err; inp ];
  children := pid :: !children;
  pid

(* CPU seconds the process has run so far, all its threads
   (/proc/PID/task/TID/schedstat, first field, in ns) *)
let cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0.
  | tids ->
      Array.fold_left
        (fun acc tid ->
          match In_channel.with_open_text (Filename.concat (Filename.concat dir tid) "schedstat") input_line with
          | exception (Sys_error _ | End_of_file) -> acc
          | l -> (
              match String.split_on_char ' ' l with
              | ns :: _ -> acc +. (Option.value ~default:0. (float_of_string_opt ns) /. 1e9)
              | [] -> acc))
        0. tids

(* kB of the process's peak resident set (VmHWM) *)
let peak_rss_kb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
      List.fold_left
        (fun acc l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> Option.value ~default:acc (int_of_string_opt kb)
              | [] -> acc)
          | _ -> acc)
        0
        (String.split_on_char '\n' text)

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

let ring = 256 (* > any pipeline depth used *)

type conn = {
  fd : Unix.file_descr;
  mutable next_id : int;
  sent_ns : int array;  (** by id mod ring *)
  sent_kind : Pb_gen.kind array;
  mutable inflight : int;
  mutable verdicts : Bytes.t;  (** by id - 1; '\255' = no response *)
  mutable sent : int;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  wbuf : Buffer.t;
  mutable wpend : string;
  mutable woff : int;
  mutable source : unit -> Pb_gen.request option;
}

let no_verdict = '\255'

let connect path ~deadline ~alive =
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        if not (alive ()) then fail "the server exited before binding %s" path;
        if Unix.gettimeofday () > deadline then fail "cannot connect to %s" path;
        Unix.sleepf 0.0005;
        attempt ()
  in
  let fd = attempt () in
  Unix.set_nonblock fd;
  {
    fd;
    next_id = 1;
    sent_ns = Array.make ring 0;
    sent_kind = Array.make ring Pb_gen.Read;
    inflight = 0;
    verdicts = Bytes.make 65536 no_verdict;
    sent = 0;
    rbuf = Bytes.create (1 lsl 20);
    rlen = 0;
    wbuf = Buffer.create 65536;
    wpend = "";
    woff = 0;
    source = (fun () -> None);
  }

let set_verdict c id v =
  let i = id - 1 in
  if i >= Bytes.length c.verdicts then begin
    let b = Bytes.make (2 * Bytes.length c.verdicts) no_verdict in
    Bytes.blit c.verdicts 0 b 0 (Bytes.length c.verdicts);
    c.verdicts <- b
  end;
  Bytes.set c.verdicts i (Char.chr v)

let flush_writes c =
  if c.wpend = "" && Buffer.length c.wbuf > 0 then begin
    c.wpend <- Buffer.contents c.wbuf;
    c.woff <- 0;
    Buffer.clear c.wbuf
  end;
  if c.wpend <> "" then begin
    (match Unix.write_substring c.fd c.wpend c.woff (String.length c.wpend - c.woff) with
    | n -> c.woff <- c.woff + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
    if c.woff >= String.length c.wpend then c.wpend <- ""
  end

let fill depth c =
  let rec go () =
    if c.inflight < depth then
      match c.source () with
      | None -> ()
      | Some { Pb_gen.body; kind } ->
          let id = c.next_id in
          c.next_id <- id + 1;
          Buffer.add_string c.wbuf (Pb_gen.line ~id body);
          Buffer.add_char c.wbuf '\n';
          c.sent_ns.(id land (ring - 1)) <- now_ns ();
          c.sent_kind.(id land (ring - 1)) <- kind;
          c.inflight <- c.inflight + 1;
          c.sent <- c.sent + 1;
          go ()
  in
  go ();
  flush_writes c

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let has_at b pos s =
  let n = String.length s in
  let rec go k = k = n || (Bytes.get b (pos + k) = s.[k] && go (k + 1)) in
  pos + n <= Bytes.length b && go 0

(* the first newline in [b.[pos .. len)] *)
let newline b pos len =
  let rec go i = if i >= len then None else if Bytes.get b i = '\n' then Some i else go (i + 1) in
  go pos

(* (id, verdict) of a response line [b.[pos .. eol)], scanning only the
   fixed prefix [{"id":N,"ok":...] the server writes; the error code is
   looked up only for rejections. *)
let parse_response b pos eol =
  if not (has_at b pos {|{"id":|}) then None
  else begin
    let i = ref (pos + 6) and id = ref 0 in
    while !i < eol && Bytes.get b !i >= '0' && Bytes.get b !i <= '9' do
      id := (10 * !id) + Char.code (Bytes.get b !i) - 48;
      incr i
    done;
    if has_at b !i {|,"ok":true|} then Some (!id, 0)
    else if has_at b !i {|,"ok":false|} then
      let line = Bytes.sub_string b pos (eol - pos) in
      match Json.of_string line with
      | Ok j -> (
          match Json.to_string_opt (Json.member "code" (Json.member "error" j)) with
          | Some code -> Some (!id, Pb_replay.verdict_of_code code)
          | None -> None)
      | Error _ -> None
    else None
  end

type recorder = {
  mutable from_ns : int;  (** responses to requests sent earlier are not timed *)
  all : Vec.t;
  writes : Vec.t;
  reads : Vec.t;
  mutable timed : int;
}

let recorder () =
  { from_ns = max_int; all = Vec.create (); writes = Vec.create ();
    reads = Vec.create (); timed = 0 }

let consume rec_ c =
  let b = c.rbuf in
  let pos = ref 0 in
  let continue = ref true in
  while !continue do
    match newline b !pos c.rlen with
    | Some eol ->
        let t = now_ns () in
        (match parse_response b !pos eol with
        | Some (id, v) when id >= 1 && id < c.next_id ->
            set_verdict c id v;
            c.inflight <- c.inflight - 1;
            let sent = c.sent_ns.(id land (ring - 1)) in
            if sent >= rec_.from_ns then begin
              let rtt = t - sent in
              Vec.push rec_.all rtt;
              (match c.sent_kind.(id land (ring - 1)) with
              | Pb_gen.Write -> Vec.push rec_.writes rtt
              | Pb_gen.Read -> Vec.push rec_.reads rtt);
              rec_.timed <- rec_.timed + 1
            end
        | _ ->
            fail "unexpected response: %s" (Bytes.sub_string b !pos (eol - !pos)));
        pos := eol + 1
    | None -> continue := false
  done;
  Bytes.blit b !pos b 0 (c.rlen - !pos);
  c.rlen <- c.rlen - !pos

(* Drive every connection until its source is exhausted and all its
   requests are answered: closed loop, [depth] requests in flight. *)
let drive ~depth rec_ conns =
  let live () =
    List.filter (fun c -> c.inflight > 0 || c.wpend <> "" || Buffer.length c.wbuf > 0) conns
  in
  List.iter (fill depth) conns;
  let rec loop () =
    match live () with
    | [] -> ()
    | active ->
        let rd = List.map (fun c -> c.fd) active in
        let wr = List.filter_map (fun c -> if c.wpend <> "" then Some c.fd else None) active in
        let rds, wrs, _ =
          try Unix.select rd wr [] 30.0
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        if rds = [] && wrs = [] then fail "the server stopped answering";
        List.iter
          (fun c ->
            if List.memq c.fd wrs then flush_writes c;
            if List.memq c.fd rds then begin
              if c.rlen = Bytes.length c.rbuf then fail "response longer than the read buffer";
              match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
              | 0 -> fail "the server closed a connection"
              | n ->
                  c.rlen <- c.rlen + n;
                  consume rec_ c;
                  fill depth c
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
            end)
          active;
        loop ()
  in
  loop ()

(* One blocking request/response on an idle connection, outside the
   measured stream: id 0, so the stream's ids stay the request numbers *)
let rpc c body =
  let id = 0 in
  Unix.clear_nonblock c.fd;
  let s = Pb_gen.line ~id body ^ "\n" in
  let rec write off =
    if off < String.length s then
      write (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  write 0;
  let rec read_line scanned =
    match newline c.rbuf scanned c.rlen with
    | Some eol ->
        let l = Bytes.sub_string c.rbuf 0 eol in
        Bytes.blit c.rbuf (eol + 1) c.rbuf 0 (c.rlen - eol - 1);
        c.rlen <- c.rlen - eol - 1;
        l
    | None ->
        let scanned = c.rlen in
        if c.rlen = Bytes.length c.rbuf then
          c.rbuf <- Bytes.extend c.rbuf 0 (Bytes.length c.rbuf);
        let n = Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) in
        if n = 0 then fail "the server closed the control connection";
        c.rlen <- c.rlen + n;
        read_line scanned
  in
  let rec answer () =
    let l = read_line 0 in
    match Json.of_string l with
    | Ok j when Json.member "id" j = Json.Int id -> j
    | Ok _ -> answer ()
    | Error e -> fail "unparseable control response: %s" e
  in
  let j = answer () in
  Unix.set_nonblock c.fd;
  if Json.member "ok" j <> Json.Bool true then fail "%s failed: %s" body (Json.to_string j);
  Json.member "result" j
