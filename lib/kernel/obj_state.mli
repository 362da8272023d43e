(** Runtime state of a single object (aspect).

    Attributes are stored in a flat array indexed by the template's
    interned slots ({!Template.slots}); name-based access goes through
    the slot table, slot-based access is a single array read/write.
    Monitor states are immutable values held in mutable fields, so
    transaction rollback restores old pointers; the attribute array is
    copied on {!snapshot} because it is mutated in place. *)

module Smap :
  Map.S with type key = string and type 'a t = 'a Map.Make(String).t

module Key : Map.OrderedType with type t = Value.t list
(** Instance keys, ordered by [List.compare Value.compare]. *)

module Keymap : Map.S with type key = Key.t

module Keyset : Set.S with type elt = Key.t

(** Some instance keys of a table, or all of them. *)
type keys = All | Keys of Keyset.t

(** Instance table of a parametric ([PG_indexed]) or class-quantified
    ([PG_quant]) permission monitor, keyed by the guard's parameter
    values (the member's surrogate, for a quantified guard).  Immutable,
    like the monitor states it holds: rollback, probes and {!View} thaws
    restore or share the old pointer, coverage and settlement records
    included.  {!Persist} and {!Effect_log} write neither record; a
    loaded or replayed table starts with no coverage and every key
    unsettled. *)
type table = {
  insts : Monitor.state Keymap.t;  (** one monitor state per instance key *)
  covered : Ident.Set.t;
      (** quantified guards: a class extension every member of which
          has an instance, compared by physical identity (sets are
          immutable, so an equal pointer means an equal set).  A step
          reconciles the table only when the current extension is not
          this pointer, i.e. after a birth or death.  Starts (and
          restarts after a load or a WAL replay) as [Ident.Set.empty],
          which covers only the empty extension. *)
  unsettled : keys;
      (** the instances whose state may not be a fixpoint of
          {!Monitor.step_quiescent}.  Every other instance is one: a
          step that changes none of its inputs would leave it exactly
          as it is, so the engine does not visit it.  [All] after a
          full advance, a load or a WAL replay, and once the object is
          dead; a key the engine steps in full or spawns joins the set,
          and leaves it once a quiescent step returns its state
          unchanged. *)
}

val empty_table : table

val table_of_list : (Value.t list * Monitor.state) list -> table
(** A table of the given instances, with no coverage record and every
    key unsettled. *)

(** Monitor state attached to one permission of the template. *)
type pstate =
  | PS_none  (** non-temporal guard: nothing to track *)
  | PS_closed of Monitor.state option  (** [None] before the first step *)
  | PS_indexed of table
      (** one instance per observed instantiation of the guard's
          parameters (or per class member, for quantified guards) *)

type history_entry = {
  h_events : Event.t list;  (** events of the step involving this object *)
  h_attrs : Value.t array;  (** attribute state after the step (a copy) *)
}

type t = {
  id : Ident.t;
  template : Template.t;
  mutable alive : bool;
  mutable dead : bool;  (** death has occurred; no rebirth *)
  mutable attrs : Value.t array;  (** parallel to [Template.slots] *)
  mutable perm_states : pstate array;  (** parallel to [template.t_perms] *)
  mutable constr_states : Monitor.state option array;
      (** parallel to the template's temporal constraints *)
  mutable history : history_entry list;
      (** newest first; recorded only when the community's
          [record_history] is set *)
  mutable steps : int;  (** life-cycle steps so far *)
}

val create : Ident.t -> Template.t -> t
(** A fresh, unborn state (monitors unstarted, attributes all
    [Undefined]). *)

val initial_pstate : Template.permission -> pstate

val attr : t -> string -> Value.t
(** Raw stored attribute ([Undefined] when unset or unknown to the
    template); derived attributes are computed by {!Eval.read_attr},
    not here. *)

val set_attr : t -> string -> Value.t -> unit
(** Raises {!Runtime_error.Error} with [Unknown_attribute] when the
    template has no slot of that name. *)

val attr_slot : t -> int -> Value.t
val set_attr_slot : t -> int -> Value.t -> unit

val attrs_bindings : Template.t -> Value.t array -> (string * Value.t) list
(** Named bindings of an attribute array relative to a template, sorted
    by name, unset ([Undefined]) slots omitted. *)

val bindings : t -> (string * Value.t) list

(** Copies of all mutable fields, for rollback.  The fields are public
    so that {!Effect_log} can diff a journal snapshot (the state at
    transaction entry) against the committed state to derive the redo
    effect record. *)
type snapshot = {
  s_alive : bool;
  s_dead : bool;
  s_attrs : Value.t array;
  s_perm_states : pstate array;
  s_constr_states : Monitor.state option array;
  s_history : history_entry list;
  s_steps : int;
}

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

val copy_snapshot : snapshot -> snapshot
(** A snapshot safe to {!restore} into a different object without
    aliasing the original: the mutated-in-place arrays are duplicated,
    immutable values stay shared.  ({!View} materializes per-domain
    objects from one frozen snapshot this way.) *)

val snapshot_cost : snapshot -> int
(** Bytes allocated by taking the snapshot (shallow: the record plus the
    copied attribute and monitor-state arrays; values and states are
    shared pointers). *)

val pp : Format.formatter -> t -> unit
