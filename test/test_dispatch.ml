(** Differential testing of compiled dispatch (satellite of the staged
    evaluator work): every scenario runs twice — once with
    [compiled_dispatch] on (the default) and once against the
    interpreted reference semantics — and the two runs must agree on
    script output, acceptance/rejection of every step, the exact error
    of every rejected step, and the bit-identical [Persist.save] image
    of the final community. *)

let check = Alcotest.check

let interpreted_config =
  { Community.default_config with Community.compiled_dispatch = false }

let load_pair src =
  let load config =
    match Troll.Session.load ~config src with
    | Ok s -> Troll.Session.system s
    | Error e -> Alcotest.failf "load failed: %s" (Troll.Error.to_string e)
  in
  (load Community.default_config, load interpreted_config)

(* bridges from the removed string-error wrappers to the engine API:
   every scenario below animates both systems of a [load_pair] *)
let fire sys target name args =
  Engine.fire sys.Troll.community (Event.make target name args)

let step sys st = Engine.step sys.Troll.community st

let create sys ~cls ~key ?event ?(args = []) () =
  Engine.step sys.Troll.community (Step.Create { cls; key; event; args })

(** Run a script under both modes; output, first failure and persisted
    image must agree. *)
let diff_script name src script =
  let compiled, interp = load_pair src in
  let oc = Script.run_string compiled script in
  let oi = Script.run_string interp script in
  check
    Alcotest.(list string)
    (name ^ ": script output") oi.Script.output oc.Script.output;
  check
    Alcotest.(option string)
    (name ^ ": script failure") oi.Script.failed oc.Script.failed;
  check Alcotest.string (name ^ ": persisted image")
    (Persist.save interp.Troll.community)
    (Persist.save compiled.Troll.community)

(** Apply the same step sequence to both modes; each step must be
    accepted by both or rejected by both with the same error, and the
    final persisted images must be bit-identical. *)
let diff_steps name src (steps : (Troll.system -> Engine.step_result) list) =
  let compiled, interp = load_pair src in
  List.iteri
    (fun i f ->
      match (f compiled, f interp) with
      | Ok _, Ok _ -> ()
      | Error a, Error b ->
          check Alcotest.string
            (Printf.sprintf "%s: step %d error code" name i)
            (Runtime_error.reason_to_string b)
            (Runtime_error.reason_to_string a)
      | Ok _, Error r ->
          Alcotest.failf "%s: step %d accepted compiled, rejected interpreted (%s)"
            name i
            (Runtime_error.reason_to_string r)
      | Error r, Ok _ ->
          Alcotest.failf "%s: step %d rejected compiled (%s), accepted interpreted"
            name i
            (Runtime_error.reason_to_string r))
    steps;
  check Alcotest.string (name ^ ": persisted image")
    (Persist.save interp.Troll.community)
    (Persist.save compiled.Troll.community)

(* ------------------------------------------------------------------ *)
(* Example specifications, golden scenarios                            *)
(* ------------------------------------------------------------------ *)

(** §4 DEPT: permissions (state, indexed and class-quantified), the
    global interaction, and the full promotion / closure story —
    including the rejections along the way. *)
let test_dept_story () =
  let alice = Troll.ident "PERSON" (Value.String "alice") in
  let bob = Troll.ident "PERSON" (Value.String "bob") in
  let sales = Troll.ident "DEPT" (Value.String "sales") in
  diff_steps "dept" Paper_specs.dept
    [
      (fun s -> create s ~cls:"PERSON" ~key:(Value.String "alice") ());
      (fun s -> create s ~cls:"PERSON" ~key:(Value.String "bob") ());
      (fun s ->
        create s ~cls:"DEPT" ~key:(Value.String "sales")
          ~args:[ Value.Date 7749 ] ());
      (* birth of an already-living object *)
      (fun s ->
        create s ~cls:"DEPT" ~key:(Value.String "sales")
          ~args:[ Value.Date 7750 ] ());
      (* indexed permission: fire before any hire *)
      (fun s -> fire s sales "fire" [ Ident.to_value alice ]);
      (fun s -> fire s sales "hire" [ Ident.to_value alice ]);
      (* state permission: hiring a current employee *)
      (fun s -> fire s sales "hire" [ Ident.to_value alice ]);
      (fun s -> fire s sales "hire" [ Ident.to_value bob ]);
      (* global interaction: new_manager calls become_manager *)
      (fun s -> fire s sales "new_manager" [ Ident.to_value alice ]);
      (* quantified permission: closure while employees never fired *)
      (fun s -> fire s sales "closure" []);
      (fun s -> fire s sales "fire" [ Ident.to_value alice ]);
      (fun s -> fire s sales "fire" [ Ident.to_value bob ]);
      (fun s -> fire s sales "closure" []);
      (* events on the dead department *)
      (fun s -> fire s sales "hire" [ Ident.to_value bob ]);
      (* unknown event name *)
      (fun s -> fire s alice "promote_wrong" [ Value.Int 2 ]);
    ]

(** Company: phase birth (MANAGER view of PERSON), a phase-local static
    constraint, and death propagation to living phases. *)
let test_company_phases () =
  let key name = Value.Tuple [ ("Name", Value.String name);
                               ("Birthdate", Value.Date 0) ] in
  let pid name = Troll.ident "PERSON" (key name) in
  let mid name = Troll.ident "MANAGER" (key name) in
  diff_steps "company" Paper_specs.company
    [
      (fun s -> create s ~cls:"CAR" ~key:(Value.String "X-1") ());
      (fun s ->
        create s ~cls:"PERSON" ~key:(key "ada")
          ~args:[ Value.Money 9000; Value.String "R1" ] ());
      (* phase birth through the base event *)
      (fun s -> fire s (pid "ada") "become_manager" []);
      (fun s ->
        fire s (mid "ada") "assign_official_car"
          [ Ident.to_value (Troll.ident "CAR" (Value.String "X-1")) ]);
      (* the MANAGER static constraint rejects a low salary *)
      (fun s -> fire s (pid "ada") "ChangeSalary" [ Value.Money 4 ]);
      (fun s -> fire s (pid "ada") "ChangeSalary" [ Value.Money 9500 ]);
      (* death of the base aspect kills the phase *)
      (fun s -> fire s (pid "ada") "dies" []);
      (fun s -> fire s (mid "ada") "assign_official_car"
          [ Ident.to_value (Troll.ident "CAR" (Value.String "X-1")) ]);
    ]

(** emp_rel: interface-level permissions and the multi-micro-step
    ChangeSalary transaction. *)
let test_emp_rel () =
  let rel = Ident.singleton "emp_rel" in
  let insert n s sys =
    fire sys rel "InsertEmp" [ Value.String n; Value.Date 0; Value.Int s ]
  in
  diff_steps "emp_rel" Paper_specs.employee_implementation
    [
      insert "ada" 100;
      insert "ada" 200;
      (* duplicate key *)
      (fun s ->
        fire s rel "UpdateSalary"
          [ Value.String "ada"; Value.Date 0; Value.Int 150 ]);
      (fun s ->
        fire s rel "UpdateSalary"
          [ Value.String "bob"; Value.Date 0; Value.Int 150 ]);
      (* transaction calling: expands to three micro-steps *)
      (fun s ->
        fire s rel "ChangeSalary"
          [ Value.String "ada"; Value.Date 0; Value.Int 900 ]);
      (fun s -> fire s rel "CloseEmpRel" []);
      (* nonempty *)
      (fun s -> fire s rel "DeleteEmp" [ Value.String "ada"; Value.Date 0 ]);
      (fun s -> fire s rel "CloseEmpRel" []);
    ]

(** Library: scripts with views, the active clock, and event sharing. *)
let test_library_script () =
  diff_script "library" Paper_specs.library
    {|
      new BOOK("i1") acquire("SICP", science);
      new MEMBER("kim") join_library;
      MEMBER("kim").borrow(BOOK("i1"));
      show BOOK("i1").OnLoan;
      new LibraryClock(tuple()) start_clock(d"1991-06-01");
      active 100;
      show LibraryClock.Today;
      MEMBER("kim").return(BOOK("i1"));
      show BOOK("i1").OnLoan;
    |}

(** The dept script flow, including a show after every mutation. *)
let test_dept_script () =
  diff_script "dept script" Paper_specs.dept
    {|
      new PERSON("bob") born;
      new DEPT("hr") establishment(d"1990-01-01");
      DEPT("hr").hire(PERSON("bob"));
      show DEPT("hr").employees;
      DEPT("hr").new_manager(PERSON("bob"));
      show PERSON("bob").Grade;
      PERSON("bob").promote(7);
      show PERSON("bob").Grade;
    |}

(* ------------------------------------------------------------------ *)
(* Targeted semantics: conflicts, constraints, sync sharing            *)
(* ------------------------------------------------------------------ *)

(** Two valuation rules of the same event writing one attribute: a
    conflict exactly when the written values differ.  The duplicated
    target also disables the staged distinct-slot shortcut, so this
    exercises the hashtable conflict path under both modes. *)
let conflict_spec =
  {|
object class GADGET
  identification gid: string;
  template
    attributes n: integer; mark: integer;
    events birth make; death break; clash(integer, integer); bump;
    valuation
      variables a: integer; b: integer;
      [make] n = 0;
      [make] mark = 0;
      [bump] n = n + 1;
      [clash(a, b)] n = a;
      [clash(a, b)] n = b;
      [clash(a, b)] mark = a;
    constraints
      static n <= 3;
end object class GADGET;
|}

let test_conflicts_and_statics () =
  let g = Troll.ident "GADGET" (Value.String "g") in
  diff_steps "conflict" conflict_spec
    [
      (fun s -> create s ~cls:"GADGET" ~key:(Value.String "g") ());
      (* agreeing writes: no conflict *)
      (fun s -> fire s g "clash" [ Value.Int 2; Value.Int 2 ]);
      (* diverging writes: valuation conflict *)
      (fun s -> fire s g "clash" [ Value.Int 1; Value.Int 2 ]);
      (fun s -> fire s g "bump" []);
      (* static constraint violation *)
      (fun s -> fire s g "clash" [ Value.Int 9; Value.Int 9 ]);
      (fun s -> fire s g "break" []);
    ]

let temporal_spec =
  {|
object class ARM
  identification id: string;
  template
    attributes armed: bool;
    events birth init; arm; disarm; ping;
    valuation
      [init] armed = false;
      [arm] armed = true;
      [disarm] armed = false;
    constraints
      sometime(armed) => armed;
end object class ARM;
|}

let test_temporal_constraint () =
  let x = Troll.ident "ARM" (Value.String "x") in
  diff_steps "temporal" temporal_spec
    [
      (fun s -> create s ~cls:"ARM" ~key:(Value.String "x") ());
      (* quiescent steps before arming: monitors advance, nothing holds *)
      (fun s -> fire s x "ping" []);
      (fun s -> fire s x "arm" []);
      (* quiescent steps after arming keep the obligation *)
      (fun s -> fire s x "ping" []);
      (fun s -> fire s x "disarm" []);
      (fun s -> fire s x "ping" []);
    ]

(** Event sharing: two events in one synchronous step, and an atomic
    sequence whose failing tail rolls back the whole transaction. *)
let test_sync_and_seq () =
  let g = Troll.ident "GADGET" (Value.String "g") in
  diff_steps "sync/seq" conflict_spec
    [
      (fun s -> create s ~cls:"GADGET" ~key:(Value.String "g") ());
      (fun s ->
        step s
          (Step.Sync
             [ Event.make g "clash" [ Value.Int 2; Value.Int 2 ];
               Event.make g "bump" [] ]));
      (* same-attribute disagreement across shared events *)
      (fun s ->
        step s
          (Step.Sync
             [ Event.make g "clash" [ Value.Int 1; Value.Int 1 ];
               Event.make g "clash" [ Value.Int 2; Value.Int 2 ] ]));
      (* atomic sequence: the violating tail aborts the accepted head *)
      (fun s ->
        step s
          (Step.Seq
             [ Event.make g "bump" [];
               Event.make g "clash" [ Value.Int 9; Value.Int 9 ] ]));
      (fun s -> fire s g "bump" []);
    ]

(* ------------------------------------------------------------------ *)
(* Keyed instance tables: reconciliation and the quiescent step        *)
(* ------------------------------------------------------------------ *)

(** Expected verdicts: every action (a step, or an [Engine.enabled]
    probe) must give [expected] on every system, and the systems must
    end bit-identical under [Persist.save]. *)
let diff_verdicts name systems (actions : (bool * (Troll.system -> bool)) list)
    =
  List.iteri
    (fun i (expected, act) ->
      List.iteri
        (fun k sys ->
          check Alcotest.bool
            (Printf.sprintf "%s: action %d, system %d" name i k)
            expected (act sys))
        systems)
    actions;
  match systems with
  | [] -> ()
  | first :: rest ->
      List.iter
        (fun sys ->
          check Alcotest.string (name ^ ": persisted image")
            (Persist.save first.Troll.community)
            (Persist.save sys.Troll.community))
        rest

let ok f sys = match f sys with Ok _ -> true | Error _ -> false
let born name = ok (fun s -> create s ~cls:"PERSON" ~key:(Value.String name) ())
let person name = Troll.ident "PERSON" (Value.String name)

let on dept name ?(who = []) () =
  ok (fun s -> fire s dept name (List.map (fun p -> Ident.to_value (person p)) who))

let probe dept name ?(who = []) () sys =
  Engine.enabled sys.Troll.community
    (Event.make dept name (List.map (fun p -> Ident.to_value (person p)) who))

let sales = Troll.ident "DEPT" (Value.String "sales")

let established =
  ok (fun s ->
      create s ~cls:"DEPT" ~key:(Value.String "sales") ~args:[ Value.Date 7749 ]
        ())

(** The instance table of [dept]'s permission guarding [event]. *)
let table sys dept event =
  let o = Community.object_exn sys.Troll.community dept in
  let rec find idx = function
    | [] -> Alcotest.failf "no permission on %s" event
    | (pm : Template.permission) :: rest ->
        if String.equal pm.Template.pm_event event then
          match o.Obj_state.perm_states.(idx) with
          | Obj_state.PS_indexed t -> t
          | _ -> Alcotest.failf "%s has no instance table" event
        else find (idx + 1) rest
  in
  find 0 o.Obj_state.template.Template.t_perms

let person_extension sys = Community.extension sys.Troll.community "PERSON"

(** A PERSON born after the DEPT's last step gets its [closure] instance
    when the DEPT next steps — here by hiring them, so the instance
    starts employed and blocks [closure] until they are fired. *)
let test_reconcile_late_hire () =
  let compiled, interp = load_pair Paper_specs.dept in
  diff_verdicts "late hire" [ compiled; interp ]
    [
      (true, born "alice");
      (true, established);
      (true, on sales "hire" ~who:[ "alice" ] ());
      (true, on sales "fire" ~who:[ "alice" ] ());
      (true, born "bob");
      (true, probe sales "closure" ());
      (true, on sales "hire" ~who:[ "bob" ] ());
      (false, probe sales "closure" ());
      (false, on sales "closure" ());
      (true, on sales "fire" ~who:[ "bob" ] ());
      (true, on sales "closure" ());
    ]

(* closure needs every PERSON to have been on the roster at some point:
   a member without an instance (born since the DEPT's last step) reads
   false, so a probe that overlooked newcomers would say yes *)
let roster_spec =
  {|
object class PERSON
  identification pname: string;
  template
    events birth born;
end object class PERSON;

object class DEPT
  identification id: string;
  template
    attributes employees: set(|PERSON|);
    events
      birth establishment(date);
      death closure;
      hire(|PERSON|);
    valuation
      variables P: |PERSON|; d: date;
      [establishment(d)] employees = {};
      [hire(P)] employees = insert(P, employees);
    permissions
      { for all (P: PERSON : sometime(P in employees)) } closure;
end object class DEPT;
|}

(** A PERSON born between DEPT steps is seen by an [Engine.enabled]
    probe of [closure], though the table has no instance for them. *)
let test_probe_sees_newborn () =
  let compiled, interp = load_pair roster_spec in
  let systems = [ compiled; interp ] in
  diff_verdicts "newborn, before" systems
    [
      (true, born "alice");
      (true, established);
      (true, on sales "hire" ~who:[ "alice" ] ());
      (true, probe sales "closure" ());
      (true, born "bob");
    ];
  let t = table compiled sales "closure" in
  check Alcotest.bool "table not reconciled since bob's birth" false
    (t.Obj_state.covered == person_extension compiled);
  check Alcotest.bool "bob has no instance" false
    (Obj_state.Keymap.mem [ Ident.to_value (person "bob") ] t.Obj_state.insts);
  diff_verdicts "newborn, after" systems
    [
      (false, probe sales "closure" ());
      (true, on sales "hire" ~who:[ "bob" ] ());
      (true, probe sales "closure" ());
    ]

(** A probe that steps the DEPT reconciles its table, and the rollback
    takes the reconciliation back with it: a member born afterwards is
    still reconciled by the next real step. *)
let test_probe_reconciles_then_rolls_back () =
  let compiled, interp = load_pair roster_spec in
  let systems = [ compiled; interp ] in
  diff_verdicts "probe rollback, before" systems
    [
      (true, born "alice");
      (true, established);
      (true, on sales "hire" ~who:[ "alice" ] ());
      (true, born "bob");
    ];
  let before = table compiled sales "closure" in
  (* the probe's hire steps the DEPT: the table is reconciled against
     {alice, bob} inside the probe, then rolled back *)
  diff_verdicts "probe rollback, probe" systems
    [ (true, probe sales "hire" ~who:[ "bob" ] ()) ];
  check Alcotest.bool "rollback restores the table pointer" true
    (table compiled sales "closure" == before);
  diff_verdicts "probe rollback, after" systems
    [
      (true, born "carol");
      (false, probe sales "closure" ());
      (true, on sales "hire" ~who:[ "bob" ] ());
      (false, probe sales "closure" ());
      (true, on sales "hire" ~who:[ "carol" ] ());
      (true, probe sales "closure" ());
    ];
  let t = table compiled sales "closure" in
  check Alcotest.bool "reconciled against the current extension" true
    (t.Obj_state.covered == person_extension compiled);
  check Alcotest.int "one instance per member" 3
    (Obj_state.Keymap.cardinal t.Obj_state.insts)

let temp_dir () =
  let path = Filename.temp_file "troll_dispatch" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

(** A state restored by [Persist.load] or by WAL recovery carries no
    coverage record, and gives the same next verdicts as the run that
    wrote it. *)
let test_restore_without_coverage () =
  let dir = temp_dir () in
  let digest = Digest.to_hex (Digest.string Paper_specs.dept) in
  let compiled, interp = load_pair Paper_specs.dept in
  let wal =
    match Wal.attach ~dir ~spec_digest:digest compiled.Troll.community with
    | Ok (w, None) -> w
    | Ok (_, Some _) -> Alcotest.fail "fresh directory claimed to recover"
    | Error m -> Alcotest.failf "attach: %s" m
  in
  diff_verdicts "restore, before" [ compiled; interp ]
    [
      (true, born "alice");
      (true, established);
      (true, on sales "hire" ~who:[ "alice" ] ());
      (true, on sales "fire" ~who:[ "alice" ] ());
      (true, born "bob");
    ];
  Wal.detach wal;
  let loaded, _ = load_pair Paper_specs.dept in
  (match Persist.load loaded.Troll.community (Persist.save compiled.Troll.community) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "load: %s" m);
  let recovered, _ = load_pair Paper_specs.dept in
  (match Wal.recover ~dir ~spec_digest:digest recovered.Troll.community with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "recover: %s" m);
  Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
  Unix.rmdir dir;
  List.iter
    (fun (what, sys) ->
      check Alcotest.bool (what ^ ": no coverage record") true
        ((table sys sales "closure").Obj_state.covered == Ident.Set.empty);
      List.iter
        (fun event ->
          check Alcotest.bool
            (Printf.sprintf "%s: every %s key unsettled" what event)
            true
            ((table sys sales event).Obj_state.unsettled = Obj_state.All))
        [ "closure"; "fire" ])
    [ ("loaded", loaded); ("recovered", recovered) ];
  diff_verdicts "restore, after" [ compiled; interp; loaded; recovered ]
    [
      (true, probe sales "closure" ());
      (true, on sales "hire" ~who:[ "bob" ] ());
      (false, on sales "closure" ());
      (true, on sales "fire" ~who:[ "bob" ] ());
      (true, on sales "closure" ());
    ]

let fast_steps () = (Dispatch.stats ()).Dispatch.monitor_fast_steps

(** [new_manager] writes only [manager]: the [closure] monitor's state
    atom [P in employees] keeps its bit and nothing is evaluated, while
    [hire] writes [employees] and re-evaluates it. *)
let test_quiescent_state_atoms () =
  let compiled, interp = load_pair Paper_specs.dept in
  let systems = [ compiled; interp ] in
  diff_verdicts "quiescent, set-up" systems
    [
      (true, born "alice");
      (true, born "bob");
      (true, established);
      (true, on sales "hire" ~who:[ "alice" ] ());
    ];
  (* the interpreted system takes no quiescent step, so the counter
     moves only for the compiled one *)
  let before = table compiled sales "closure" in
  let n0 = fast_steps () in
  diff_verdicts "quiescent, new_manager" systems
    [ (true, on sales "new_manager" ~who:[ "alice" ] ()) ];
  check Alcotest.int "both DEPT monitors advanced quiescently" 2
    (fast_steps () - n0);
  check Alcotest.bool "unwritten slot: every instance kept its state" true
    ((table compiled sales "closure").Obj_state.insts
    == before.Obj_state.insts);
  (* hire writes employees, and no occurrence atom of closure names it:
     the step is not quiescent, and bob's instance must see him hired —
     otherwise closure would pass once alice is fired *)
  let n1 = fast_steps () in
  diff_verdicts "quiescent, hire" systems
    [ (true, on sales "hire" ~who:[ "bob" ] ()) ];
  check Alcotest.int "written slot: no quiescent advance" 0 (fast_steps () - n1);
  diff_verdicts "quiescent, after" systems
    [
      (true, on sales "fire" ~who:[ "alice" ] ());
      (false, probe sales "closure" ());
      (true, on sales "fire" ~who:[ "bob" ] ());
      (true, on sales "closure" ());
    ]

(* closure needs every PERSON to have reached grade 2 at some DEPT step:
   [P.Grade] is another object's attribute, so no DEPT step is quiescent
   for this monitor *)
let grade_spec =
  {|
object class PERSON
  identification pname: string;
  template
    attributes Grade: integer;
    events
      birth born;
      promote(integer);
    valuation
      variables g: integer;
      [born] Grade = 1;
      [promote(g)] Grade = g;
end object class PERSON;

object class DEPT
  identification id: string;
  template
    attributes manager: |PERSON|;
    events
      birth establishment(date);
      death closure;
      new_manager(|PERSON|);
    valuation
      variables P: |PERSON|;
      [new_manager(P)] manager = P;
    permissions
      { for all (P: PERSON : sometime(P.Grade > 1)) } closure;
end object class DEPT;
|}

let test_quiescent_nonlocal_atom () =
  let alice = Ident.to_value (person "alice") in
  let promote g = ok (fun s -> fire s (person "alice") "promote" [ Value.Int g ]) in
  let compiled, interp = load_pair grade_spec in
  diff_verdicts "non-local atom" [ compiled; interp ]
    [
      (true, born "alice");
      (true, established);
      (false, probe sales "closure" ());
      (* promoted between DEPT steps: the monitor sees it only when the
         DEPT next steps, and that step writes no slot the atom reads *)
      (true, promote 2);
      (false, probe sales "closure" ());
      (true, ok (fun s -> fire s sales "new_manager" [ alice ]));
      (true, promote 1);
      (true, probe sales "closure" ());
      (true, ok (fun s -> fire s sales "closure" []));
    ]

(** [manager.Grade] reads the manager's object, not DEPT's own slot:
    a DEPT step that writes nothing must still re-check the static
    constraint after the manager was promoted on their own step. *)
let surrogate_field_spec =
  {|
object class PERSON
  identification pname: string;
  template
    attributes Grade: integer;
    events
      birth born;
      promote(integer);
    valuation
      variables g: integer;
      [born] Grade = 1;
      [promote(g)] Grade = g;
end object class PERSON;

object class DEPT
  identification id: string;
  template
    attributes manager: |PERSON|;
    events
      birth establishment(date);
      new_manager(|PERSON|);
      tick;
    valuation
      variables P: |PERSON|;
      [new_manager(P)] manager = P;
    constraints
      static not(defined(manager)) or manager.Grade < 5;
end object class DEPT;
|}

let test_static_through_surrogate_field () =
  let compiled, interp = load_pair surrogate_field_spec in
  let promote g = ok (fun s -> fire s (person "alice") "promote" [ Value.Int g ]) in
  diff_verdicts "surrogate field" [ compiled; interp ]
    [
      (true, born "alice");
      (true, established);
      (true, on sales "new_manager" ~who:[ "alice" ] ());
      (true, on sales "tick" ());
      (true, promote 7);
      (false, on sales "tick" ());
      (true, promote 2);
      (true, on sales "tick" ());
    ]

(* ------------------------------------------------------------------ *)
(* Key-addressed advance: a step visits only the instances it changes  *)
(* ------------------------------------------------------------------ *)

let key name = [ Ident.to_value (person name) ]
let keyset names = Obj_state.Keyset.of_list (List.map key names)

let unsettled_is names (t : Obj_state.table) =
  match t.Obj_state.unsettled with
  | Obj_state.Keys u -> Obj_state.Keyset.equal u (keyset names)
  | Obj_state.All -> false

(** The keys whose instance state is not physically the one in
    [before]. *)
let restepped (before : Obj_state.table) (after : Obj_state.table) =
  Obj_state.Keymap.fold
    (fun key s acc ->
      match Obj_state.Keymap.find_opt key before.Obj_state.insts with
      | Some s0 when s0 == s -> acc
      | _ -> key :: acc)
    after.Obj_state.insts []
  |> List.rev

let names n = List.init n (Printf.sprintf "p%03d")

(** With 200 members, a [hire] steps only the hired member's instance
    of both DEPT monitors; every other instance keeps its very state,
    and the hired one is the only unsettled key afterwards. *)
let test_keyed_hire_among_many () =
  let compiled, interp = load_pair Paper_specs.dept in
  let systems = [ compiled; interp ] in
  let people = names 200 in
  diff_verdicts "keyed hire, set-up" systems
    (List.map (fun p -> (true, born p)) people
    @ [ (true, established) ]
    @ List.concat_map
        (fun p -> [ (true, on sales "hire" ~who:[ p ] ()) ])
        [ "p000"; "p001"; "p002"; "p199" ]
    @ [ (true, on sales "fire" ~who:[ "p001" ] ());
        (* two steps that write no slot the monitors read: every
           instance settles *)
        (true, on sales "new_manager" ~who:[ "p000" ] ());
        (true, on sales "new_manager" ~who:[ "p002" ] ()) ]);
  let closure0 = table compiled sales "closure" in
  let fire0 = table compiled sales "fire" in
  List.iter
    (fun (what, t) ->
      check Alcotest.bool (what ^ ": settled") true (unsettled_is [] t))
    [ ("closure", closure0); ("fire", fire0) ];
  diff_verdicts "keyed hire, step" systems
    [ (true, on sales "hire" ~who:[ "p150" ] ()) ];
  check Alcotest.int "closure: one instance per member" 200
    (Obj_state.Keymap.cardinal
       (table compiled sales "closure").Obj_state.insts);
  List.iter
    (fun (what, before, after) ->
      check Alcotest.bool (what ^ ": only p150 re-stepped") true
        (restepped before after = [ key "p150" ]);
      check Alcotest.bool (what ^ ": only p150 unsettled") true
        (unsettled_is [ "p150" ] after))
    [ ("closure", closure0, table compiled sales "closure");
      ("fire", fire0, table compiled sales "fire") ];
  diff_verdicts "keyed hire, after" systems
    [ (false, probe sales "closure" ());
      (true, on sales "fire" ~who:[ "p150" ] ());
      (true, on sales "fire" ~who:[ "p000" ] ());
      (true, on sales "fire" ~who:[ "p002" ] ());
      (false, probe sales "closure" ());
      (true, on sales "fire" ~who:[ "p199" ] ());
      (true, probe sales "closure" ());
      (true, on sales "closure" ()) ]

(* [reset] empties the roster in one valuation: the members it removes
   are the ones whose [P in employees] atom changes *)
let reset_spec =
  {|
object class PERSON
  identification pname: string;
  template
    events birth born;
end object class PERSON;

object class DEPT
  identification id: string;
  template
    attributes employees: set(|PERSON|);
    events
      birth establishment(date);
      death closure;
      hire(|PERSON|);
      reset;
      tick;
    valuation
      variables P: |PERSON|; d: date;
      [establishment(d)] employees = {};
      [hire(P)] employees = insert(P, employees);
      [reset] employees = {};
    permissions
      { for all (P: PERSON : sometime(P in employees) => previous(P in employees)) } closure;
end object class DEPT;
|}

let test_keyed_multi_member_write () =
  let compiled, interp = load_pair reset_spec in
  let systems = [ compiled; interp ] in
  diff_verdicts "reset, set-up" systems
    (List.map (fun p -> (true, born p)) (names 10)
    @ [ (true, established) ]
    @ List.map
        (fun p -> (true, on sales "hire" ~who:[ p ] ()))
        [ "p001"; "p004"; "p007" ]
    @ [ (true, on sales "tick" ()); (true, on sales "tick" ()) ]);
  let before = table compiled sales "closure" in
  check Alcotest.bool "settled before reset" true (unsettled_is [] before);
  diff_verdicts "reset" systems [ (true, on sales "reset" ()) ];
  let after = table compiled sales "closure" in
  check Alcotest.bool "exactly the removed members re-stepped" true
    (restepped before after = List.map key [ "p001"; "p004"; "p007" ]);
  check Alcotest.bool "exactly the removed members unsettled" true
    (unsettled_is [ "p001"; "p004"; "p007" ] after);
  diff_verdicts "reset, after" systems
    [ (true, probe sales "closure" ());
      (true, on sales "tick" ());
      (false, probe sales "closure" ());
      (true, on sales "hire" ~who:[ "p004" ] ());
      (true, on sales "hire" ~who:[ "p001" ] ());
      (true, on sales "hire" ~who:[ "p007" ] ());
      (false, probe sales "closure" ());
      (true, on sales "tick" ());
      (true, on sales "closure" ()) ]

(* three quantified guards no step can address by key: a state atom
   over the whole roster, another object's attribute, and an
   occurrence atom that does not mention the member *)
let unaddressable_spec =
  {|
object class PERSON
  identification pname: string;
  template
    attributes Grade: integer;
    events
      birth born;
      promote(integer);
    valuation
      variables g: integer;
      [born] Grade = 1;
      [promote(g)] Grade = g;
end object class PERSON;

object class DEPT
  identification id: string;
  template
    attributes employees: set(|PERSON|);
    events
      birth establishment(date);
      death closure;
      hire(|PERSON|);
      big;
      graded;
      audit;
    valuation
      variables P: |PERSON|; d: date;
      [establishment(d)] employees = {};
      [hire(P)] employees = insert(P, employees);
    permissions
      { for all (P: PERSON : sometime(card(employees) > 2 and P in employees)) } big;
      { for all (P: PERSON : sometime(P.Grade > 1)) } graded;
      { for all (P: PERSON : sometime(P in employees) => sometime(after(audit))) } closure;
end object class DEPT;
|}

let test_keyed_fallback () =
  let compiled, interp = load_pair unaddressable_spec in
  let systems = [ compiled; interp ] in
  let guarded = [ "big"; "graded"; "closure" ] in
  let ti =
    Dispatch.template_index compiled.Troll.community
      (Community.template_exn compiled.Troll.community "DEPT")
  in
  let keyed event =
    let o = Community.object_exn compiled.Troll.community sales in
    let rec find idx = function
      | [] -> Alcotest.failf "no permission on %s" event
      | (pm : Template.permission) :: rest ->
          if String.equal pm.Template.pm_event event then
            match ti.Dispatch.ti_perm_mons.(idx) with
            | Some cm -> cm.Dispatch.cm_keyed
            | None -> None
          else find (idx + 1) rest
    in
    find 0 o.Obj_state.template.Template.t_perms
  in
  diff_verdicts "fallback, set-up" systems
    (List.map (fun p -> (true, born p)) (names 6)
    @ [ (true, established);
        (true, on sales "hire" ~who:[ "p000" ] ());
        (true, on sales "hire" ~who:[ "p001" ] ()) ]);
  (* the roster-wide atom reads [employees] beside the membership atom:
     the body is keyed, but a step writing [employees] is not *)
  check Alcotest.bool "big: keyed body" true (keyed "big" <> None);
  check Alcotest.bool "graded: not keyed" true (keyed "graded" = None);
  check Alcotest.bool "closure: not keyed" true (keyed "closure" = None);
  let before = List.map (fun e -> (e, table compiled sales e)) guarded in
  diff_verdicts "fallback, hire" systems
    [ (true, on sales "hire" ~who:[ "p002" ] ()) ];
  List.iter
    (fun (e, t0) ->
      let t = table compiled sales e in
      check Alcotest.int (e ^ ": every instance re-stepped")
        (Obj_state.Keymap.cardinal t.Obj_state.insts)
        (List.length (restepped t0 t));
      check Alcotest.bool (e ^ ": every key unsettled") true
        (t.Obj_state.unsettled = Obj_state.All))
    before;
  diff_verdicts "fallback, after" systems
    [ (false, probe sales "big" ());
      (false, probe sales "graded" ());
      (true, ok (fun s -> fire s (person "p003") "promote" [ Value.Int 2 ]));
      (false, probe sales "closure" ());
      (true, on sales "audit" ());
      (true, probe sales "closure" ());
      (true, on sales "hire" ~who:[ "p003" ] ());
      (true, probe sales "closure" ());
      (false, probe sales "graded" ()) ]

(** A keyed step inside a probe moves the unsettled record with the
    instances, and the rollback restores both: the table after the probe
    is the very one before it. *)
let test_keyed_probe_rollback () =
  let compiled, interp = load_pair Paper_specs.dept in
  let systems = [ compiled; interp ] in
  diff_verdicts "keyed probe, set-up" systems
    (List.map (fun p -> (true, born p)) (names 20)
    @ [ (true, established);
        (true, on sales "hire" ~who:[ "p003" ] ());
        (true, on sales "new_manager" ~who:[ "p003" ] ()) ]);
  let closure0 = table compiled sales "closure" in
  let fire0 = table compiled sales "fire" in
  diff_verdicts "keyed probe, probes" systems
    [ (true, probe sales "hire" ~who:[ "p007" ] ());
      (true, probe sales "fire" ~who:[ "p003" ] ());
      (false, probe sales "fire" ~who:[ "p007" ] ()) ];
  check Alcotest.bool "closure table restored" true
    (table compiled sales "closure" == closure0);
  check Alcotest.bool "fire table restored" true
    (table compiled sales "fire" == fire0);
  diff_verdicts "keyed probe, after" systems
    [ (true, on sales "hire" ~who:[ "p007" ] ());
      (true, on sales "fire" ~who:[ "p003" ] ());
      (false, probe sales "closure" ());
      (true, on sales "fire" ~who:[ "p007" ] ());
      (true, probe sales "closure" ());
      (true, on sales "closure" ()) ]

(** Random hire/fire/probe traces on the paper's DEPT: the compiled
    (keyed) and interpreted engines agree on every verdict and on the
    persisted image after every action. *)
let prop_keyed_traces =
  let open QCheck.Gen in
  let action =
    frequency
      [ (4, map (fun i -> `Hire i) (int_range 0 7));
        (4, map (fun i -> `Fire i) (int_range 0 7));
        (2, map (fun i -> `Probe_hire i) (int_range 0 7));
        (2, map (fun i -> `Probe_fire i) (int_range 0 7));
        (1, return `Probe_closure);
        (1, map (fun i -> `Manager i) (int_range 0 7));
        (1, map (fun i -> `Born i) (int_range 8 11));
        (1, return `Closure) ]
  in
  let print = function
    | `Hire i -> Printf.sprintf "hire p%03d" i
    | `Fire i -> Printf.sprintf "fire p%03d" i
    | `Probe_hire i -> Printf.sprintf "probe hire p%03d" i
    | `Probe_fire i -> Printf.sprintf "probe fire p%03d" i
    | `Probe_closure -> "probe closure"
    | `Manager i -> Printf.sprintf "new_manager p%03d" i
    | `Born i -> Printf.sprintf "born p%03d" i
    | `Closure -> "closure"
  in
  QCheck.Test.make ~name:"keyed advance: random dept traces" ~count:60
    (QCheck.make ~print:(QCheck.Print.list print)
       (list_size (int_range 1 40) action))
    (fun actions ->
      let compiled, interp = load_pair Paper_specs.dept in
      let p i = Printf.sprintf "p%03d" i in
      let run sys = function
        | `Hire i -> on sales "hire" ~who:[ p i ] () sys
        | `Fire i -> on sales "fire" ~who:[ p i ] () sys
        | `Probe_hire i -> probe sales "hire" ~who:[ p i ] () sys
        | `Probe_fire i -> probe sales "fire" ~who:[ p i ] () sys
        | `Probe_closure -> probe sales "closure" () sys
        | `Manager i -> on sales "new_manager" ~who:[ p i ] () sys
        | `Born i -> born (p i) sys
        | `Closure -> on sales "closure" () sys
      in
      List.iter
        (fun sys ->
          List.iter (fun i -> assert (born (p i) sys)) (List.init 8 Fun.id);
          assert (established sys))
        [ compiled; interp ];
      List.for_all
        (fun a ->
          let vc = run compiled a in
          let vi = run interp a in
          vc = vi
          && String.equal
               (Persist.save compiled.Troll.community)
               (Persist.save interp.Troll.community))
        actions)

let () =
  Alcotest.run "dispatch-differential"
    [
      ( "examples",
        [
          Alcotest.test_case "dept story" `Quick test_dept_story;
          Alcotest.test_case "dept script" `Quick test_dept_script;
          Alcotest.test_case "company phases" `Quick test_company_phases;
          Alcotest.test_case "emp_rel transactions" `Quick test_emp_rel;
          Alcotest.test_case "library script" `Quick test_library_script;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "valuation conflicts and statics" `Quick
            test_conflicts_and_statics;
          Alcotest.test_case "temporal constraint" `Quick
            test_temporal_constraint;
          Alcotest.test_case "sync sharing and seq rollback" `Quick
            test_sync_and_seq;
        ] );
      ( "footprints",
        [
          Alcotest.test_case "static through a surrogate field" `Quick
            test_static_through_surrogate_field;
        ] );
      ( "instance-tables",
        [
          Alcotest.test_case "late-born member hired" `Quick
            test_reconcile_late_hire;
          Alcotest.test_case "probe sees a newborn member" `Quick
            test_probe_sees_newborn;
          Alcotest.test_case "probe reconciles, rolls back" `Quick
            test_probe_reconciles_then_rolls_back;
          Alcotest.test_case "restore: no coverage record" `Quick
            test_restore_without_coverage;
          Alcotest.test_case "quiescent: own-slot state atoms" `Quick
            test_quiescent_state_atoms;
          Alcotest.test_case "quiescent: non-local state atom" `Quick
            test_quiescent_nonlocal_atom;
          Alcotest.test_case "keyed: hire among 200 members" `Quick
            test_keyed_hire_among_many;
          Alcotest.test_case "keyed: one write, several members" `Quick
            test_keyed_multi_member_write;
          Alcotest.test_case "keyed: unaddressable atoms" `Quick
            test_keyed_fallback;
          Alcotest.test_case "keyed: probe rolls back" `Quick
            test_keyed_probe_rollback;
          QCheck_alcotest.to_alcotest prop_keyed_traces;
        ] );
    ]
