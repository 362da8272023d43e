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
        ((table sys sales "closure").Obj_state.covered == Ident.Set.empty))
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
        ] );
    ]
