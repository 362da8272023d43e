(** Object (class) interfaces — §5.1.

    An interface class gives a *restricted access path* to existing
    objects: it projects attributes and events, derives new attributes
    (query algebra over the encapsulated state) and new events (calling
    into base events), selects a sub-population ([selection where …])
    and — with several encapsulated classes — forms join views such as
    the paper's [WORKS_FOR].

    Interfaces never copy objects: internal identity is preserved, and
    every manipulation routed through a view executes the encapsulated
    object's own events under its own permissions.  What the view adds
    is authorization: only the listed attributes can be observed and
    only the listed events can be fired. *)

open Runtime_error

type t = {
  decl : Ast.iface_decl;
  community : Community.t;
}

(** An instance of the view: one living object per encapsulated class,
    keyed by the declared instance variable (or the class name when no
    variable was declared). *)
type instance = (string * Ident.t) list

let make community (decl : Ast.iface_decl) : t = { decl; community }

let name t = t.decl.Ast.if_name

let enc_bindings t : (string * string) list =
  (* (binding name, class) *)
  List.map
    (fun (cls, var) -> ((match var with Some v -> v | None -> cls), cls))
    t.decl.Ast.if_encapsulating

(* ------------------------------------------------------------------ *)
(* Selection                                                           *)
(* ------------------------------------------------------------------ *)

let env_of_instance (inst : instance) : Env.t =
  Env.of_list (List.map (fun (n, id) -> (n, Ident.to_value id)) inst)

(** The object playing the role of [self] inside the view's rules: the
    instance of the first encapsulated class. *)
let self_object t (inst : instance) : Obj_state.t option =
  match inst with
  | (_, id) :: _ -> Community.find_object t.community id
  | [] -> None

let selection_holds t (inst : instance) : bool =
  match t.decl.Ast.if_selection with
  | None -> true
  | Some sel -> (
      let env = env_of_instance inst in
      match
        Eval.formula_state t.community ~env ~self:(self_object t inst) sel
      with
      | b -> b
      | exception Error (Eval_error _) -> false)

(** Is the instance currently a member of the view (alive and selected)? *)
let member t (inst : instance) : bool =
  List.for_all
    (fun (_, id) -> Community.living t.community id <> None)
    inst
  && selection_holds t inst

(** Enumerate the current extension of the view: the (Cartesian, for
    join views) combinations of living instances that pass the
    selection. *)
let extension t : instance list =
  let bindings = enc_bindings t in
  let rec combos = function
    | [] -> [ [] ]
    | (bname, cls) :: rest ->
        let members = Ident.Set.elements (Community.extension t.community cls) in
        List.concat_map
          (fun id -> List.map (fun tail -> (bname, id) :: tail) (combos rest))
          members
  in
  List.filter (selection_holds t) (combos bindings)

(* ------------------------------------------------------------------ *)
(* Attribute access                                                    *)
(* ------------------------------------------------------------------ *)

let find_attr_decl t aname =
  List.find_opt
    (fun (a : Ast.iface_attr) -> String.equal a.Ast.ia_name aname)
    t.decl.Ast.if_attributes

let find_event_decl t ename =
  List.find_opt
    (fun (e : Ast.iface_event) -> String.equal e.Ast.ie_name ename)
    t.decl.Ast.if_events

let find_derivation t aname =
  List.find_opt
    (fun (d : Ast.derivation_rule) -> String.equal d.Ast.d_attr aname)
    t.decl.Ast.if_derivation

(** Read a view attribute of an instance.  Projected attributes read the
    encapsulated object's attribute; derived ones evaluate their
    derivation rule.  Attributes not listed in the interface are
    invisible (authorization). *)
let attr t (inst : instance) (aname : string) (args : Value.t list) :
    (Value.t, reason) result =
  match find_attr_decl t aname with
  | None ->
      Error (Unknown_attribute (name t, aname))
  | Some decl -> (
      if not (member t inst) then Error (Not_alive (snd (List.hd inst)))
      else
        let env = env_of_instance inst in
        let self = self_object t inst in
        try
          if decl.Ast.ia_derived then
            match find_derivation t aname with
            | None -> Error (Eval_error (aname ^ ": no derivation rule"))
            | Some rule ->
                let env =
                  List.fold_left2
                    (fun env p v -> Env.bind p v env)
                    env rule.Ast.d_params args
                in
                Ok (Eval.expr t.community ~env ~self rule.Ast.d_rhs)
          else
            (* projection: the encapsulated object that declares it *)
            let rec search : instance -> (Value.t, reason) result = function
              | [] -> Error (Unknown_attribute (name t, aname))
              | (_, id) :: rest -> (
                  match Community.find_object t.community id with
                  | None -> search rest
                  | Some o -> (
                      match Eval.read_attr t.community o aname args with
                      | v -> Ok v
                      | exception Error (Unknown_attribute _) -> search rest))
            in
            search inst
        with
        | Error r -> Error r
        | Invalid_argument _ ->
            Error (Eval_error (aname ^ ": wrong number of arguments")))

(** All visible attribute names of the view. *)
let attr_names t =
  List.map (fun (a : Ast.iface_attr) -> a.Ast.ia_name) t.decl.Ast.if_attributes

let event_names t =
  List.map (fun (e : Ast.iface_event) -> e.Ast.ie_name) t.decl.Ast.if_events

(* ------------------------------------------------------------------ *)
(* Event firing                                                        *)
(* ------------------------------------------------------------------ *)

(** Fire a view event on an instance.

    - projected events execute the base object's event directly (its
      permissions still apply);
    - derived events expand their calling rule: the called base events
      run as one atomic transaction, so
      [IncreaseSalary >> ChangeSalary(Salary * 1.1)] performs the
      restricted update the view offers.

    Events not listed in the interface are rejected. *)
let fire t (inst : instance) (ename : string) (args : Value.t list) :
    Engine.step_result =
  match find_event_decl t ename with
  | None -> Error (Unknown_event (name t, ename))
  | Some decl -> (
      (* Creation through the view is allowed: when the instance is not
         (fully) alive yet, the membership check is deferred to the
         engine, which only accepts birth events on unborn objects. *)
      let all_alive =
        List.for_all
          (fun (_, id) -> Community.living t.community id <> None)
          inst
      in
      if all_alive && not (selection_holds t inst) then
        Error
          (match inst with
          | (_, id) :: _ -> Not_alive id
          | [] -> Eval_error "empty view instance")
      else
        let env = env_of_instance inst in
        let self = self_object t inst in
        if not decl.Ast.ie_derived then
          (* projection: fire on the encapsulated object declaring it *)
          let rec search : instance -> Engine.step_result = function
            | [] -> Error (Unknown_event (name t, ename))
            | (_, id) :: rest -> (
                let tpl = Community.find_template t.community id.Ident.cls in
                match
                  Option.bind tpl (fun tp -> Template.find_event tp ename)
                with
                | Some _ -> Engine.fire t.community (Event.make id ename args)
                | None -> (
                    (* event may live higher in the inheritance chain *)
                    match
                      Engine.locate_event t.community
                        (Event.make id ename args)
                    with
                    | ev -> Engine.fire t.community ev
                    | exception Error (Unknown_event _) -> search rest))
          in
          search inst
        else
          (* derived: expand the calling rule *)
          let rules =
            List.filter
              (fun (r : Ast.calling_rule) ->
                String.equal r.Ast.i_caller.Ast.ev_name ename)
              t.decl.Ast.if_calling
          in
          match rules with
          | [] -> Error (Eval_error (ename ^ ": no calling rule"))
          | rule :: _ -> (
              (* bind the caller's formal parameters *)
              let vars =
                List.concat_map (fun (ns, _) -> ns) t.decl.Ast.if_variables
              in
              match
                Eval.match_args t.community ~env ~self ~vars
                  rule.Ast.i_caller.Ast.ev_args args
              with
              | None ->
                  Error (Eval_error (ename ^ ": arguments do not match"))
              | Some env -> (
                  let guard_ok =
                    match rule.Ast.i_guard with
                    | None -> true
                    | Some g -> Eval.formula_state t.community ~env ~self g
                  in
                  if not guard_ok then
                    Error
                      (Permission_denied
                         ( Event.make
                             (match inst with
                             | (_, id) :: _ -> id
                             | [] -> Ident.singleton (name t))
                             ename args,
                           "view calling guard" ))
                  else
                    try
                      let events =
                        List.map
                          (fun term ->
                            Engine.resolve_called t.community ~env ~self term)
                          rule.Ast.i_called
                      in
                      Engine.step t.community (Step.Seq events)
                    with Error r -> Error r)))

(* ------------------------------------------------------------------ *)
(* Enabledness                                                         *)
(* ------------------------------------------------------------------ *)

(** Would firing this view event be accepted right now?  The attempt
    runs for real — authorization, selection, calling guards, the base
    objects' own permissions — inside {!Txn.probe}, which always rolls
    back, so the community is untouched. *)
let enabled t (inst : instance) (ename : string) (args : Value.t list) : bool
    =
  match Txn.probe t.community (fun () -> fire t inst ename args) with
  | Ok _ -> true
  | Error _ -> false

(** The parameterless view events (projected and derived) currently
    enabled on an instance — what an animator would offer as next steps
    through this access path. *)
let enabled_events t (inst : instance) : string list =
  List.filter_map
    (fun (e : Ast.iface_event) ->
      if e.Ast.ie_params = [] && enabled t inst e.Ast.ie_name [] then
        Some e.Ast.ie_name
      else None)
    t.decl.Ast.if_events

(* ------------------------------------------------------------------ *)
(* Tabulation (view as a relation)                                     *)
(* ------------------------------------------------------------------ *)

(** Materialise the view as a relation: one tuple per instance with all
    parameterless visible attributes — the shape a salary-report
    subsystem would consume from [SAL_EMPLOYEE]. *)
let tabulate t : Algebra.rel =
  let attrs =
    List.filter
      (fun (a : Ast.iface_attr) -> a.Ast.ia_params = [])
      t.decl.Ast.if_attributes
  in
  let row inst =
    Value.Tuple
      (List.map
         (fun (a : Ast.iface_attr) ->
           ( a.Ast.ia_name,
             match attr t inst a.Ast.ia_name [] with
             | Ok v -> v
             | Error _ -> Value.Undefined ))
         attrs)
  in
  List.sort_uniq Value.compare (List.map row (extension t))
