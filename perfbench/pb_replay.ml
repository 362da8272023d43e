(* In-process sequential replay of a served request stream.

   The replay feeds the exact request lines the client sent through the
   server's public layers one at a time — [Frame.decode_line],
   [Protocol.decode], [Server.execute] (whose commits reach the WAL
   through the community's commit hook), [Protocol.ok_frame] /
   [Protocol.error_frame] + [Frame.add_line] — and records each
   request's verdict.  Untraced, it is the sequential reference every
   served verdict and the final dump must match.  Traced, it records a
   span around each of those calls, nested per request:

     request -> frame.decode, protocol.decode,
                server.execute (-> wal.append), protocol.encode

   and turn-level [wal.sync] spans for the group fsync.  Spans live in
   preallocated arrays; a request's self times go into per-name
   histograms when it ends, and the first [dump_requests] requests'
   spans are kept and written out when the replay is over. *)

open Pb_stats

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)
(* ------------------------------------------------------------------ *)

(* Verdict 0 is ok; every error code gets a small number on first
   sight, shared by the served run and the replays of one process. *)
let codes : (string, int) Hashtbl.t = Hashtbl.create 16
let code_names = ref [| "ok" |]

let verdict_of_code code =
  match Hashtbl.find_opt codes code with
  | Some v -> v
  | None ->
      let v = Array.length !code_names in
      Hashtbl.replace codes code v;
      code_names := Array.append !code_names [| code |];
      v

let verdict_name v = if v < Array.length !code_names then !code_names.(v) else "?"

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let max_spans = 64
let dump_requests = 2000

type tracer = {
  on : bool;  (** false: every span call is a no-op (the untraced replay) *)
  names : (string, int) Hashtbl.t;
  mutable name_list : string array;
  mutable hists : Hist.t array;  (** self time per span name *)
  sname : int array;
  slabel : int array;  (** extra histogram the self time also goes to *)
  sstart : int array;
  sstop : int array;
  sparent : int array;
  swords0 : float array;
  swords1 : float array;
  child_ns : int array;
  child_words : float array;
  mutable n : int;
  mutable top : int;  (** innermost open span, -1 when none *)
  mutable group : int;  (** span group (request or fsync) number *)
  mutable words : float;  (** minor words allocated inside requests *)
  total : Hist.t;  (** whole request span, children included *)
  dump : Buffer.t;
  op_labels : (string, int) Hashtbl.t;  (** op -> [execute.<op>] name *)
}

let tracer ?(on = true) () =
  {
    on;
    names = Hashtbl.create 32;
    name_list = [||];
    hists = [||];
    sname = Array.make max_spans 0;
    slabel = Array.make max_spans (-1);
    sstart = Array.make max_spans 0;
    sstop = Array.make max_spans 0;
    sparent = Array.make max_spans (-1);
    swords0 = Array.make max_spans 0.;
    swords1 = Array.make max_spans 0.;
    child_ns = Array.make max_spans 0;
    child_words = Array.make max_spans 0.;
    n = 0;
    top = -1;
    group = 0;
    words = 0.;
    total = Hist.create ();
    dump = Buffer.create 65536;
    op_labels = Hashtbl.create 16;
  }

let intern tr name =
  match Hashtbl.find_opt tr.names name with
  | Some i -> i
  | None ->
      let i = Array.length tr.name_list in
      Hashtbl.replace tr.names name i;
      tr.name_list <- Array.append tr.name_list [| name |];
      tr.hists <- Array.append tr.hists [| Hist.create () |];
      i

let hist tr name = tr.hists.(intern tr name)

(* the per-operation histogram [execute.<op>] of a server.execute span *)
let op_label tr op =
  match Hashtbl.find_opt tr.op_labels op with
  | Some l -> l
  | None ->
      let l = intern tr ("execute." ^ op) in
      Hashtbl.replace tr.op_labels op l;
      l

let enter tr name =
  if not tr.on then -1
  else begin
    let i = tr.n in
    tr.n <- i + 1;
    tr.sname.(i) <- name;
    tr.slabel.(i) <- -1;
    tr.sparent.(i) <- tr.top;
    tr.top <- i;
    tr.swords0.(i) <- Gc.minor_words ();
    tr.sstart.(i) <- now_ns ();
    i
  end

let leave tr i =
  if i >= 0 then begin
    tr.sstop.(i) <- now_ns ();
    tr.swords1.(i) <- Gc.minor_words ();
    tr.top <- tr.sparent.(i)
  end

(* Close a group of spans (one request, or one turn's fsync): compute
   self times from the nesting and fold them into the histograms. *)
let finish_spans tr =
  let n = tr.n in
  let child_ns = tr.child_ns and child_words = tr.child_words in
  Array.fill child_ns 0 n 0;
  Array.fill child_words 0 n 0.;
  for i = 0 to n - 1 do
    let p = tr.sparent.(i) in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + (tr.sstop.(i) - tr.sstart.(i));
      child_words.(p) <- child_words.(p) +. (tr.swords1.(i) -. tr.swords0.(i))
    end
  done;
  let keep = tr.group < dump_requests and request = intern tr "request" in
  for i = 0 to n - 1 do
    let dur = tr.sstop.(i) - tr.sstart.(i) in
    let self = dur - child_ns.(i) in
    Hist.add tr.hists.(tr.sname.(i)) self;
    if tr.slabel.(i) >= 0 then Hist.add tr.hists.(tr.slabel.(i)) self;
    if tr.sparent.(i) < 0 && tr.sname.(i) = request then begin
      Hist.add tr.total dur;
      tr.words <- tr.words +. (tr.swords1.(i) -. tr.swords0.(i))
    end;
    if keep then
      Printf.bprintf tr.dump "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%.0f\n" tr.group i
        tr.sparent.(i)
        tr.name_list.(if tr.slabel.(i) >= 0 then tr.slabel.(i) else tr.sname.(i))
        (tr.sstart.(i) - tr.sstart.(0))
        dur self
        (tr.swords1.(i) -. tr.swords0.(i) -. child_words.(i))
  done;
  tr.n <- 0;
  tr.top <- -1

let finish tr =
  if tr.on then finish_spans tr;
  tr.group <- tr.group + 1

(* ------------------------------------------------------------------ *)
(* The replay                                                          *)
(* ------------------------------------------------------------------ *)

type config = {
  spec_src : string;
  jobs : int;
  wal_dir : string option;
  turn : int;  (** requests per group fsync when a WAL is attached *)
}

type result = {
  verdicts : Buffer.t array;  (** per connection, in id order *)
  dump : string;  (** final [Persist.save] *)
  requests : int;
  busy_ns : int;  (** time inside the request loop, generation excluded *)
  major_collections : int;
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fail fmt = Printf.ksprintf failwith fmt

(* One replayer: a fresh session (and WAL) fed request lines chunk by
   chunk; [exec] times each chunk. *)
let replayer ?tracer:tr cfg ~conns =
  let session =
    match Troll.Session.load cfg.spec_src with
    | Ok s -> s
    | Error e -> fail "replay: cannot load the specification: %s" (Troll.Error.to_string e)
  in
  let community = Troll.Session.community session in
  let wal =
    Option.map
      (fun dir ->
        rm_rf dir;
        let spec_digest = Digest.to_hex (Digest.string cfg.spec_src) in
        match Wal.attach ~dir ~spec_digest ~fsync:`Never ~snapshot_every:0 community with
        | Ok (w, _) -> w
        | Error m -> fail "replay: wal: %s" m)
      cfg.wal_dir
  in
  let server =
    Server.create ~config:{ Server.default_config with Server.jobs = cfg.jobs } ?wal session
  in
  let ids = Array.make conns 0 in
  let verdicts = Array.init conns (fun _ -> Buffer.create 65536) in
  let out = Buffer.create 4096 in
  let tr = match tr with Some t -> t | None -> tracer ~on:false () in
  let request = intern tr "request" and fdecode = intern tr "frame.decode"
  and pdecode = intern tr "protocol.decode" and execute = intern tr "server.execute"
  and encode = intern tr "protocol.encode" and wsync = intern tr "wal.sync" in
  (match (tr.on, wal, community.Community.commit_hook) with
  | true, Some _, Some hook ->
      let append = intern tr "wal.append" in
      community.Community.commit_hook <-
        Some (fun j -> let s = enter tr append in hook j; leave tr s)
  | _ -> ());
  let execute_line c line =
    ids.(c) <- ids.(c) + 1;
    let id = Json.Int ids.(c) in
    let r = enter tr request in
    let s = enter tr fdecode in
    let frame = Frame.decode_line line in
    leave tr s;
    let v =
      match frame with
      | Some (Frame.Frame doc) ->
          let s = enter tr pdecode in
          let env = Protocol.decode doc in
          leave tr s;
          let res =
            match env.Protocol.request with
            | Ok req ->
                let label = if tr.on then op_label tr (Protocol.op_name req) else -1 in
                let s = enter tr execute in
                if s >= 0 then tr.slabel.(s) <- label;
                let res = Server.execute server req in
                leave tr s;
                res
            | Error m -> Error (Protocol.Wire_error.make ~code:"bad_request" m)
          in
          let s = enter tr encode in
          Frame.add_line out
            (match res with
            | Ok body -> Protocol.ok_frame ~id body
            | Error e -> Protocol.error_frame ~id e);
          leave tr s;
          (match res with Ok _ -> 0 | Error e -> verdict_of_code e.Protocol.Wire_error.code)
      | _ -> verdict_of_code "malformed"
    in
    leave tr r;
    finish tr;
    Buffer.clear out;
    Buffer.add_char verdicts.(c) (Char.chr v)
  in
  let sync () =
    Option.iter
      (fun w ->
        let s = enter tr wsync in
        Wal.sync w;
        leave tr s;
        finish tr)
      wal
  in
  let busy = ref 0 and count = ref 0 and major = ref 0 in
  let exec cs ls n =
    let m0 = (Gc.quick_stat ()).Gc.major_collections in
    let t0 = now_ns () in
    for k = 0 to n - 1 do
      execute_line cs.(k) ls.(k);
      incr count;
      if !count mod cfg.turn = 0 then sync ()
    done;
    busy := !busy + (now_ns () - t0);
    major := !major + ((Gc.quick_stat ()).Gc.major_collections - m0)
  in
  let finish () =
    sync ();
    Option.iter Wal.detach wal;
    {
      verdicts;
      dump = Persist.save community;
      requests = !count;
      busy_ns = !busy;
      major_collections = !major;
    }
  in
  (exec, finish)

(* Replay the stream [order] yields — (connection, line) pairs — through
   every configuration at once: requests are buffered in chunks, so that
   generating them stays outside the timed loops, and each chunk runs
   through every replayer in turn, the order alternating from chunk to
   chunk.  A slow stretch of the machine then hits the replayers alike,
   which is what comparing their busy times needs. *)
let run_all ~conns (cfgs : (config * tracer option) list) (order : (int -> string -> unit) -> unit) =
  let rs = List.map (fun (cfg, tracer) -> replayer ?tracer cfg ~conns) cfgs in
  let chunk = 4096 in
  let cs = Array.make chunk 0 and ls = Array.make chunk "" in
  let n = ref 0 and flips = ref false in
  let flush () =
    List.iter (fun (exec, _) -> exec cs ls !n) (if !flips then List.rev rs else rs);
    flips := not !flips;
    n := 0
  in
  Gc.full_major ();
  order (fun c l ->
      cs.(!n) <- c;
      ls.(!n) <- l;
      incr n;
      if !n = chunk then flush ());
  flush ();
  List.map (fun (_, finish) -> finish ()) rs

let run ?tracer cfg ~conns order =
  match run_all ~conns [ (cfg, tracer) ] order with [ r ] -> r | _ -> assert false
