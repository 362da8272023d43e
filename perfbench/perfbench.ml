(* The repository benchmark's load process (see README.md).

   perfbench.exe serve --workload W --seed N --seconds S --trace 0|1
                       --trollc PATH --dir RUN_DIR --cpu C
   perfbench.exe refine --depth D
   perfbench.exe calib

   [serve] runs one served workload against the shipped [trollc serve]
   and prints one JSON object: the end-to-end metrics, the per-layer
   metrics (with --trace 1) and the correctness verdict.  [refine] runs
   the refinement check in-process with a span around
   [Refinement.check] and prints its counts.  [calib] times the
   calibration kernel (pb_calib.ml) once per line read from stdin. *)

open Pb_stats

let fail = Pb_client.fail

(* progress on stderr: where a run's wall time goes *)
let t_begin = Unix.gettimeofday ()
let phase name = Printf.eprintf "perfbench: %6.2fs %s\n%!" (Unix.gettimeofday () -. t_begin) name

(* ------------------------------------------------------------------ *)
(* Reading the server's stats op by name                               *)
(* ------------------------------------------------------------------ *)

let absent = ref []

(* [stat doc "txn" "journal entries"]: the counter, or [None] (and the
   name noted as absent) when this build's stats document lacks it *)
let stat doc block name =
  match Json.member name (Json.member block doc) with
  | Json.Int n -> Some (float n)
  | Json.Float f -> Some f
  | _ ->
      absent := (block ^ "." ^ name) :: !absent;
      None

let ratio a b =
  match (a, b) with Some a, Some b when b > 0. -> Some (a /. b) | _ -> None

(* The server-side latency of the requests served between two [stats]
   documents, from the differences of the per-op [latency_us]
   histograms (log2 buckets, merged over every op). *)
let latency_buckets doc =
  let tbl = Hashtbl.create 32 in
  (match Json.member "latency_us" doc with
  | Json.Obj ops ->
      List.iter
        (fun (_, h) ->
          List.iter
            (function
              | Json.List [ bound; Json.Int n ] ->
                  let b = match bound with Json.Int b -> float b | Json.Float f -> f | _ -> infinity in
                  Hashtbl.replace tbl b (n + Option.value ~default:0 (Hashtbl.find_opt tbl b))
              | _ -> ())
            (Json.to_list (Json.member "buckets" h)))
        ops
  | _ -> absent := "latency_us" :: !absent);
  tbl

(* p50, interpolated within the bucket that holds it *)
let server_latency_p50_us ~before after =
  let b0 = latency_buckets before in
  let buckets =
    Hashtbl.fold (fun b n acc -> (b, n - Option.value ~default:0 (Hashtbl.find_opt b0 b)) :: acc)
      (latency_buckets after) []
    |> List.sort compare
  in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 buckets in
  let half = float total /. 2. in
  let rec go lower acc = function
    | [] -> None
    | (bound, n) :: rest ->
        if n > 0 && acc +. float n >= half && Float.is_finite bound then
          Some (lower +. ((bound -. lower) *. (half -. acc) /. float n))
        else go bound (acc +. float n) rest
  in
  if total > 0 then go 0. 0. buckets else None

(* the mean, from the per-op counts and (whole-us) means *)
let server_latency_mean_us ~before after =
  let totals doc =
    match Json.member "latency_us" doc with
    | Json.Obj ops ->
        List.fold_left
          (fun (n, sum) (_, h) ->
            match (Json.member "count" h, Json.member "mean_us" h) with
            | Json.Int c, Json.Int m -> (n + c, sum +. (float c *. float m))
            | _ -> (n, sum))
          (0, 0.) ops
    | _ -> (0, 0.)
  in
  let n0, s0 = totals before and n1, s1 = totals after in
  if n1 > n0 then Some ((s1 -. s0) /. float (n1 - n0)) else None

(* ------------------------------------------------------------------ *)
(* One served run                                                      *)
(* ------------------------------------------------------------------ *)

let warmup_s = 1.0
let slice_s = 0.5

type served = {
  pid : int;
  conns : Pb_client.conn array;
  setup_s : float;  (** wall seconds *)
  setup_cpu_s : float;  (** the server's CPU seconds *)
}

(* exec -> socket bound -> every setup phase answered (the barrier) *)
let start (wl : Pb_gen.workload) ~seed ~trollc ~spec_path ~sock ~wal_dir ~log =
  (try Sys.remove sock with Sys_error _ -> ());
  Option.iter Pb_replay.rm_rf wal_dir;
  let t0 = Unix.gettimeofday () in
  let args =
    [ "serve"; spec_path; "--socket"; sock ]
    @ match wal_dir with Some d -> [ "--wal"; d ] | None -> []
  in
  let pid = Pb_client.spawn ~log trollc args in
  let alive () = match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> true | _ -> false in
  let gens = Array.init wl.conns (fun conn -> wl.make ~seed ~conn) in
  let conns =
    Array.map (fun _ -> Pb_client.connect sock ~deadline:(t0 +. 30.) ~alive) gens
  in
  let rec phases k =
    let live = ref false in
    Array.iteri
      (fun c g ->
        match List.nth_opt g.Pb_gen.setup k with
        | None -> conns.(c).Pb_client.source <- (fun () -> None)
        | Some bodies ->
            live := true;
            let q = ref bodies in
            conns.(c).Pb_client.source <-
              (fun () ->
                match !q with
                | [] -> None
                | b :: rest -> q := rest; Some { Pb_gen.body = b; kind = Pb_gen.Write }))
      gens;
    if !live then begin
      Pb_client.drive ~depth:wl.depth (Pb_client.recorder ()) (Array.to_list conns);
      phases (k + 1)
    end
  in
  phases 0;
  let setup_s = Unix.gettimeofday () -. t0 in
  ({ pid; conns; setup_s; setup_cpu_s = Pb_client.cpu_s pid }, gens)

let stop_gracefully s =
  ignore (Pb_client.rpc s.conns.(0) {|"op":"shutdown"|});
  Array.iter (fun c -> Unix.close c.Pb_client.fd) s.conns;
  ignore (Pb_client.reap s.pid)

let run_serve ~name ~seed ~seconds ~trace ~trollc ~dir ~cpu =
  let wl = match Pb_gen.workload name with Some w -> w | None -> fail "unknown workload %s" name in
  let path f = Filename.concat dir (name ^ f) in
  let spec_path = path ".trl" and sock = path ".sock" and log = path ".log" in
  Out_channel.with_open_bin spec_path (fun oc -> output_string oc wl.spec);
  let wal_dir = if wl.wal then Some (path ".wal") else None in
  (try Sys.remove log with Sys_error _ -> ());

  let setup_cpus = ref [] and setup_walls = ref [] in
  let cal = Pb_calib.start () in
  Pb_client.children := cal.Pb_calib.pid :: !Pb_client.children;
  let setup wal_dir =
    Pb_calib.sample cal;
    let s, gens = start wl ~seed ~trollc ~spec_path ~sock ~wal_dir ~log in
    setup_cpus := s.setup_cpu_s :: !setup_cpus;
    setup_walls := s.setup_s :: !setup_walls;
    (s, gens)
  in
  (* the set-ups timed per run: before the measured server (the last of
     these), and after the reference replay, so the samples span the run *)
  let setups_after = wl.setups / 2 in
  for _ = 2 to wl.setups - setups_after do stop_gracefully (fst (setup wal_dir)) done;
  let s, gens = setup wal_dir in
  phase "set up";

  (* warm-up, then the server's counters, then the measured closed
     loop: the client's samples and the difference of the two [stats]
     documents cover the same requests *)
  let steady_base = Array.map (fun c -> c.Pb_client.sent) s.conns in
  let stream until rec_ each =
    Array.iteri
      (fun i c ->
        let g = gens.(i) in
        c.Pb_client.source <-
          (fun () ->
            each ();
            if now_ns () < until then Some (g.Pb_gen.next ()) else None))
      s.conns;
    Pb_client.drive ~depth:wl.depth rec_ (Array.to_list s.conns)
  in
  (* the server's peak RSS is read after a fixed number of steady
     responses, warm-up included, so that it is compared at equal state *)
  let peak_kb = ref 0 in
  let answered () =
    Array.fold_left ( + ) 0
      (Array.mapi (fun i c -> c.Pb_client.sent - c.Pb_client.inflight - steady_base.(i)) s.conns)
  in
  let read_rss () =
    if !peak_kb = 0 && answered () >= wl.rss_after then peak_kb := Pb_client.peak_rss_kb s.pid
  in
  stream (now_ns () + int_of_float (warmup_s *. 1e9)) (Pb_client.recorder ()) read_rss;
  let stats_before = Pb_client.rpc s.conns.(0) {|"op":"stats"|} in
  let rec_ = Pb_client.recorder () in
  let t_start = now_ns () in
  rec_.Pb_client.from_ns <- t_start;
  (* slices of the closed loop, each after a calibration kernel run
     while no request is in flight *)
  let measured_ns = ref 0 and stolen_ns = ref 0 in
  for _ = 1 to max 1 (int_of_float (Float.round (seconds /. slice_s))) do
    Pb_calib.sample cal;
    let st0 = Pb_calib.steal_ns cpu and t0 = now_ns () in
    stream (t0 + int_of_float (slice_s *. 1e9)) rec_ read_rss;
    measured_ns := !measured_ns + (now_ns () - t0);
    stolen_ns := !stolen_ns + (Pb_calib.steal_ns cpu - st0)
  done;
  (* the time the host ran the CPU *)
  let measured_s = float (!measured_ns - !stolen_ns) /. 1e9 in
  let steady = Array.mapi (fun i c -> c.Pb_client.sent - steady_base.(i)) s.conns in

  phase "measured";
  (* the server's own view, its peak memory and its final state *)
  let ctl = s.conns.(0) in
  let stats = Pb_client.rpc ctl {|"op":"stats"|} in
  if !peak_kb = 0 then peak_kb := Pb_client.peak_rss_kb s.pid;
  let served_dump =
    Option.value ~default:"" (Json.to_string_opt (Json.member "state" (Pb_client.rpc ctl {|"op":"save"|})))
  in
  phase "final state read";
  (* durable_writes: kill -9 after the last acknowledgement, recover *)
  let recovered =
    match wal_dir with
    | None -> stop_gracefully s; None
    | Some wdir ->
        Unix.kill s.pid Sys.sigkill;
        ignore (Pb_client.reap s.pid);
        Array.iter (fun c -> Unix.close c.Pb_client.fd) s.conns;
        let out = path ".recovered" in
        let t0 = Unix.gettimeofday () in
        let pid = Pb_client.spawn ~stdout_file:out ~log trollc [ "recover"; spec_path; "--wal"; wdir ] in
        let st = Pb_client.reap pid in
        let recover_s = Unix.gettimeofday () -. t0 in
        if st <> Unix.WEXITED 0 then fail "trollc recover failed (see %s)" log;
        Some (recover_s, In_channel.with_open_bin out In_channel.input_all)
  in

  phase "stopped (and recovered)";
  (* the sequential reference: the same requests, one at a time *)
  let jobs =
    match stat stats "probe" "jobs" with Some j -> int_of_float j | None -> Pool.default_jobs ()
  in
  (* the WAL never changes a verdict or the state, so the reference
     replays without one unless it is the untraced twin of a traced
     replay, which must do the same work *)
  let replay_cfg wal =
    { Pb_replay.spec_src = wl.spec; jobs;
      wal_dir = (if wl.wal then Option.map path wal else None);
      turn = wl.conns * wl.depth }
  in
  let order emit =
    let gens = Array.init wl.conns (fun conn -> wl.make ~seed ~conn) in
    let phases = List.length gens.(0).Pb_gen.setup in
    for k = 0 to phases - 1 do
      Array.iteri (fun c g -> List.iter (fun b -> emit c b) (List.nth g.Pb_gen.setup k)) gens
    done;
    let most = Array.fold_left max 0 steady in
    for i = 0 to most - 1 do
      Array.iteri (fun c g -> if i < steady.(c) then emit c (g.Pb_gen.next ()).Pb_gen.body) gens
    done
  in
  let with_ids emit =
    let ids = Array.make wl.conns 0 in
    order (fun c body ->
        ids.(c) <- ids.(c) + 1;
        emit c (Pb_gen.line ~id:ids.(c) body))
  in
  (* with --trace 1, the traced replay runs interleaved with the
     reference, chunk by chunk, so their busy times compare *)
  let tr = Pb_replay.tracer () in
  let reference, traced =
    if not trace then (Pb_replay.run (replay_cfg None) ~conns:wl.conns with_ids, None)
    else
      match
        Pb_replay.run_all ~conns:wl.conns
          [ (replay_cfg (Some ".replay-wal"), None); (replay_cfg (Some ".traced-wal"), Some tr) ]
          with_ids
      with
      | [ r; t ] -> (r, Some t)
      | _ -> assert false
  in

  phase "reference replayed";
  (* verdicts: every served response against the reference *)
  let attempted = ref 0 and failed = ref 0 and mismatched = ref 0 and rejected = ref 0 in
  let transient = List.map Pb_replay.verdict_of_code [ "overloaded"; "deadline_expired"; "shutting_down" ] in
  Array.iteri
    (fun c conn ->
      let ref_v = Buffer.contents reference.Pb_replay.verdicts.(c) in
      let n = conn.Pb_client.sent in
      if String.length ref_v <> n then fail "replay length %d <> sent %d" (String.length ref_v) n;
      for i = 0 to n - 1 do
        incr attempted;
        let got =
          if i < Bytes.length conn.Pb_client.verdicts then Bytes.get conn.Pb_client.verdicts i
          else Pb_client.no_verdict
        and want = ref_v.[i] in
        if got = Pb_client.no_verdict || List.mem (Char.code got) transient then incr failed
        else if got <> want then begin
          incr failed;
          incr mismatched;
          if !mismatched <= 5 then
            Printf.eprintf "verdict mismatch: connection %d request %d: served %s, reference %s\n" c (i + 1)
              (Pb_replay.verdict_name (Char.code got)) (Pb_replay.verdict_name (Char.code want))
        end
        else if got <> '\000' then incr rejected
      done)
    s.conns;
  let dump_ok = String.equal served_dump reference.Pb_replay.dump in
  if not dump_ok then prerr_endline "final save differs from the sequential reference";
  let recover_ok =
    match recovered with
    | None -> true
    | Some (_, d) ->
        let ok = String.equal d reference.Pb_replay.dump in
        if not ok then prerr_endline "recovered state differs from the sequential reference";
        ok
  in

  phase "verdicts compared";
  (* the measured WAL is still read below *)
  let spare_wal = Option.map (fun _ -> path ".setup-wal") wal_dir in
  for _ = 1 to setups_after do stop_gracefully (fst (setup spare_wal)) done;
  (* end-to-end metrics, from the client's clock, in reference seconds *)
  let pct v q = float (quantile (Vec.sorted v) q) /. 1e3 in
  let wal_batches = if wl.wal then stat stats "wal" "batches" else None in
  let measured =
    [
      ("req_per_s", float rec_.Pb_client.timed /. measured_s);
      ("rtt_p50_us", pct rec_.Pb_client.all 0.5);
      ("setup_s", median_float !setup_cpus);
    ]
  in
  Pb_calib.stop cal;
  Pb_client.children := List.filter (( <> ) (cal.Pb_calib.pid)) !Pb_client.children;
  let scale = Pb_calib.scale cal.Pb_calib.samples in
  let e2e =
    ("peak_rss_mb", float !peak_kb /. 1024.)
    :: List.map (fun (k, v) -> (k, if k = "req_per_s" then v /. scale else v *. scale)) measured
  in
  let n_opt = function Some v -> v | None -> 0. in
  let info =
    List.map (fun (k, v) -> ("measured." ^ k, v)) measured
    @ [
      ("calibration.kernel_ms", Pb_calib.reference_ns /. scale /. 1e6);
      ("calibration.samples", float (List.length cal.Pb_calib.samples));
      ("steal_s", float !stolen_ns /. 1e9);
      ("setup_wall_s", median_float !setup_walls);
      ("rtt_p99_us", pct rec_.Pb_client.all 0.99);
      ("write_p50_us", pct rec_.Pb_client.writes 0.5);
      ("write_p99_us", pct rec_.Pb_client.writes 0.99);
      ("read_p50_us", pct rec_.Pb_client.reads 0.5);
      ("read_p99_us", pct rec_.Pb_client.reads 0.99);
      ("failed_ratio", float !failed /. float (max 1 !attempted));
      ("wal_bytes_per_commit", n_opt (if wl.wal then ratio (stat stats "wal" "bytes") wal_batches else None));
      ("recover_s", match recovered with Some (t, _) -> t | None -> 0.);
      ("jobs", float jobs);
      ("timed_requests", float rec_.Pb_client.timed);
      ("rejected_as_reference", float !rejected);
    ]
  in

  (* per-layer metrics: the server's counters, then a traced replay *)
  let layers =
    match traced with
    | None -> []
    | Some traced ->
      let server_p50 = server_latency_p50_us ~before:stats_before stats in
      Array.iteri
        (fun c b ->
          if not (String.equal (Buffer.contents b) (Buffer.contents reference.Pb_replay.verdicts.(c))) then
            fail "traced replay verdicts differ from the reference")
        traced.Pb_replay.verdicts;
      Out_channel.with_open_bin (path ".spans.tsv") (fun oc ->
          output_string oc "request\tspan\tparent\tname\tstart_ns\tdur_ns\tself_ns\tself_minor_words\n";
          Buffer.output_buffer oc tr.Pb_replay.dump);
      let h name q = Hist.quantile (Pb_replay.hist tr name) q in
      let reqs = float traced.Pb_replay.requests in
      let recover_ns_per_record =
        match wal_dir with
        | None -> 0.
        | Some wdir -> (
            match Troll.Session.load wl.spec with
            | Error _ -> fail "cannot load the specification"
            | Ok sess ->
                let t0 = now_ns () in
                let r =
                  Wal.recover ~dir:wdir ~spec_digest:(Digest.to_hex (Digest.string wl.spec))
                    (Troll.Session.community sess)
                in
                let dt = now_ns () - t0 in
                match r with
                | Ok r -> float dt /. float (max 1 r.Wal.r_replayed)
                | Error m -> fail "Wal.recover: %s" m)
      in
      let wire = match server_p50 with Some p -> pct rec_.Pb_client.all 0.5 -. p | None -> 0. in
      (* means add up where medians do not: rtt = wire + server
         latency, and the traced layers are the part of the server
         latency spent in a request's own calls; the rest is queueing
         and the select loop, which the replay does not trace *)
      let rtt_mean = Vec.mean rec_.Pb_client.all /. 1e3 in
      let traced_mean = Hist.mean tr.Pb_replay.total /. 1e3 in
      let server_mean = n_opt (server_latency_mean_us ~before:stats_before stats) in
      [
        ("frame.decode_ns_p50", h "frame.decode" 0.5);
        ("protocol.decode_ns_p50", h "protocol.decode" 0.5);
        ("protocol.encode_ns_p50", h "protocol.encode" 0.5);
        ("server.wire_us_p50", wire);
        ("server.latency_us_p50", n_opt server_p50);
        ("pipeline.members_per_batch",
         n_opt (ratio (stat stats "pipeline" "step_batch_members") (stat stats "pipeline" "step_batches")));
        ("outbuf.bytes_per_flush",
         n_opt (ratio (stat stats "pipeline" "out_bytes") (stat stats "pipeline" "out_flushes")));
        ("execute.fire_ns_p50", h "execute.fire" 0.5);
        ("execute.fire_ns_p99", h "execute.fire" 0.99);
        ("execute.create_ns_p50", h "execute.create" 0.5);
        ("txn.commit_ratio",
         n_opt (ratio (stat stats "txn" "transactions committed") (stat stats "txn" "transactions begun")));
        ("txn.journal_entries_per_commit",
         n_opt (ratio (stat stats "txn" "journal entries") (stat stats "txn" "transactions committed")));
        ("dispatch.monitor_fast_per_commit",
         n_opt (ratio (stat stats "dispatch" "monitor fast steps") (stat stats "txn" "transactions committed")));
        ("execute.eval_ns_p50", h "execute.eval" 0.5);
        ("execute.view_ns_p50", h "execute.view" 0.5);
        ("execute.attr_ns_p50", h "execute.attr" 0.5);
        ("execute.extension_ns_p50", h "execute.extension" 0.5);
        ("execute.enabled_ns_p50", h "execute.enabled" 0.5);
        ("execute.candidates_ns_p50", h "execute.candidates" 0.5);
        ("probe.views_per_request",
         n_opt (ratio (stat stats "probe" "views taken") (stat stats "probe" "requests")));
        ("wal.append_ns_p50", h "wal.append" 0.5);
        ("wal.sync_ns_p50", h "wal.sync" 0.5);
        ("wal.commits_per_fsync", n_opt (if wl.wal then ratio wal_batches (stat stats "wal" "fsyncs") else None));
        ("wal.fsync_us_mean", n_opt (if wl.wal then stat stats "wal" "fsync_mean_us" else None));
        ("wal.fsync_us_max", n_opt (if wl.wal then stat stats "wal" "fsync_max_us" else None));
        ("recover.ns_per_record", recover_ns_per_record);
        ("gc.minor_words_per_req", tr.Pb_replay.words /. reqs);
        ("gc.major_per_1k_req", 1000. *. float traced.Pb_replay.major_collections /. reqs);
        ("request.ns_p50", Hist.quantile tr.Pb_replay.total 0.5);
        ("request.self_ns_p50", h "request" 0.5);
        ("trace.overhead_ratio",
         (float traced.Pb_replay.busy_ns /. float reference.Pb_replay.busy_ns) -. 1.);
        ("account.rtt_share", (traced_mean +. rtt_mean -. server_mean) /. rtt_mean);
        ("account.untraced_server_us_mean", server_mean -. traced_mean);
      ]
  in
  let correct = !mismatched = 0 && dump_ok && recover_ok in
  let obj l =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Float (if Float.is_finite v then v else 0.))) l)
  in
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int !attempted);
      ("failed", Json.Int !failed);
      ("e2e", obj e2e);
      ("info", obj info);
      ("layers", obj layers);
      ("absent", Json.List (List.map (fun s -> Json.String s) (List.sort_uniq compare !absent)));
      ("sizes",
       Json.Obj
         [
           ("connections", Json.Int wl.conns);
           ("depth", Json.Int wl.depth);
           ("steady_requests", Json.List (Array.to_list (Array.map (fun n -> Json.Int n) steady)));
         ]);
    ]

(* ------------------------------------------------------------------ *)
(* refine: Refinement.check in-process                                 *)
(* ------------------------------------------------------------------ *)

(* the probe instance key, chosen as [trollc refine] chooses it *)
let key_for (tpl : Template.t) name =
  let default_of = function
    | Vtype.String -> Value.String name
    | Vtype.Int | Vtype.Nat -> Value.Int 0
    | Vtype.Date -> Value.Date 0
    | Vtype.Money -> Value.Money 0
    | Vtype.Bool -> Value.Bool false
    | _ -> Value.String name
  in
  match tpl.Template.t_id_fields with
  | [ (_, ty) ] -> default_of ty
  | fields -> Value.Tuple (List.mapi (fun i (n, ty) -> (n, if i = 0 then Value.String name else default_of ty)) fields)

let run_refine ~depth =
  let load file cls =
    let src = Pb_gen.read_file (Filename.concat "examples/specs" file) in
    match Troll.Session.load src with
    | Error e -> fail "%s: %s" file (Troll.Error.to_string e)
    | Ok s -> (
        let c = Troll.Session.community s in
        match Community.find_template c cls with
        | None -> fail "no class %s" cls
        | Some tpl -> (
            match Engine.create c ~cls ~key:(key_for tpl "probe") () with
            | Ok _ -> ({ Refinement.community = c; id = Ident.make cls (key_for tpl "probe") }, tpl)
            | Error r -> fail "cannot create %s: %s" cls (Runtime_error.reason_to_string r)))
  in
  let abs, abs_tpl = load "employee_abstract.trl" "EMPLOYEE" in
  let conc, _ = load "employee_implementation.trl" "EMPL_IMPL" in
  let impl = Implementation.make ~abs_class:"EMPLOYEE" ~conc_class:"EMPL_IMPL" () in
  let alphabet = Refinement.candidates abs_tpl in
  let pool = Pool.create ~jobs:(Pool.default_jobs ()) in
  Trace.reset_txn_stats ();
  let words0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now_ns () in
  let report = Refinement.check ~pool ~impl ~abs ~conc ~alphabet ~depth () in
  let dt = now_ns () - t0 in
  let words = Gc.minor_words () -. words0
  and major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  Pool.shutdown pool;
  let cases = report.Refinement.cases in
  Json.Obj
    [
      ("holds", Json.Bool (Result.is_ok report.Refinement.verdict));
      ("cases", Json.Int cases);
      ("accepted", Json.Int report.Refinement.accepted);
      ("probes", Json.Int (Trace.txn_stats ()).Txn.probes);
      ("check_s", Json.Float (float dt /. 1e9));
      ("ns_per_case", Json.Float (float dt /. float (max 1 cases)));
      ("minor_words_per_case", Json.Float (words /. float (max 1 cases)));
      ("major_per_1k_case", Json.Float (1000. *. float major /. float (max 1 cases)));
      ("jobs", Json.Int (Pool.default_jobs ()));
    ]

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt_opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt_opt name rest
    | [] -> None
  in
  let opt name l = match opt_opt name l with Some v -> v | None -> fail "missing %s" name in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let result =
    try
      match args with
      | "serve" :: rest ->
          run_serve ~name:(opt "--workload" rest) ~seed:(int_of_string (opt "--seed" rest))
            ~seconds:(float_of_string (opt "--seconds" rest))
            ~trace:(opt "--trace" rest = "1") ~trollc:(opt "--trollc" rest)
            ~dir:(opt "--dir" rest) ~cpu:(int_of_string (opt "--cpu" rest))
      | "refine" :: rest -> run_refine ~depth:(int_of_string (opt "--depth" rest))
      | [ "calib" ] ->
          Pb_calib.serve ();
          exit 0
      | _ -> fail "usage: perfbench.exe (serve|refine|calib) ..."
    with e ->
      Pb_client.kill_all ();
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1
  in
  Pb_client.kill_all ();
  print_endline (Json.to_string result)
