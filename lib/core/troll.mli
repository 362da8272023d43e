(** TROLL — the umbrella API.

    The pipeline is
    {v source —parse→ Ast.spec —check→ diagnostics
              —compile→ Community (+ views) —animate→ Engine v}
    and every lower layer stays accessible ([Parser], [Typecheck],
    [Compile], [Engine], [Community], [Interface], [Refinement],
    [Schema], [Society], [Persist], …).

    The primary API is {!Session}: a handle over a loaded system with
    structured errors ({!Error.t}) and the single animation entry point
    {!step} (every firing shape is a {!Step.t}).  A session is either a
    single engine or — following the paper's §6 modularization into
    societies connected only by event import — a set of shard cells
    routed through a partition map ({!Session.load_sharded}). *)

type system = {
  spec : Ast.spec;
  community : Community.t;
  views : (string * Interface.t) list;  (** interface classes by name *)
  diagnostics : Check_error.t list;  (** warnings from checking *)
}

(** {1 Structured errors} *)

module Error : sig
  (** Everything the facade can report, with structure preserved:
      parse errors keep their source location, checking errors their
      diagnostic, engine rejections their {!Runtime_error.reason}. *)

  type t =
    | Parse of Parse_error.t  (** syntax error, with location *)
    | Check of Check_error.t  (** static checking error, with location *)
    | Link of string list  (** society linking diagnostics *)
    | Runtime of Runtime_error.reason  (** rejection or engine error *)
    | Io of string  (** file system trouble *)

  val code : t -> string
  (** Stable machine-facing code: ["parse_error"], ["check_error"],
      ["link_error"], ["io_error"], or the {!Runtime_error.code} of the
      wrapped reason (["permission_denied"], …). *)

  val message : t -> string
  (** The human-facing text, without location prefix. *)

  val loc : t -> Loc.t option
  (** Source location, when the error carries one. *)

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

(** {1 Sessions}

    A session is the unit of service: one loaded specification, its
    community and views, animated through {!step}.  The society server
    ([lib/server]) holds exactly one session and decodes every wire
    request against it. *)

module Session : sig
  type t

  val load : ?config:Community.config -> string -> (t, Error.t) result
  (** Parse, check and compile; single objects with parameterless birth
      events are instantiated, interface classes become ready views, and
      module declarations are linked through the society layer.
      Checking errors abort; warnings are carried in
      [diagnostics]. *)

  val load_file : ?config:Community.config -> string -> (t, Error.t) result

  val of_system : system -> t
  (** Wrap an already-loaded system (e.g. one built by hand through
      [Compile]). *)

  val load_sharded :
    ?config:Community.config ->
    shards:int ->
    ?map:string ->
    string ->
    (t, Error.t) result
  (** In-process sharded session: one full engine cell per shard, every
      step routed through {!Shard.coordinate} (cross-shard steps commit
      by two-phase protocol on {!Txn} savepoints).  [map] is a partition
      map in {!Shard.to_string}'s wire form, validated against the
      specification; by default {!Shard.auto} spreads the class groups
      round-robin.  Each single object is instantiated only in its
      owning cell.  Partition errors report as [Error.Link]. *)

  val load_shard_cell :
    ?config:Community.config ->
    map:string ->
    shard:int ->
    string ->
    (t, Error.t) result
  (** One shard's slice as a plain single-engine session: the full
      schema, but single objects instantiated only when shard [shard]
      owns them under [map].  This is what each shard server process of
      [trollc shard] runs behind the NDJSON protocol. *)

  val system : t -> system
  val community : t -> Community.t
  (** For a sharded session this is the facade community: the schema
      without live instances (shard cells hold those). *)

  val spec : t -> Ast.spec
  val diagnostics : t -> Check_error.t list

  val shard_map : t -> Shard.map option
  (** [None] for a single-engine session. *)

  val shard_count : t -> int
  (** [1] for a single-engine session. *)

  (** {2 Animation} *)

  val step : t -> Step.t -> Engine.step_result
  (** Execute one step request as one atomic transaction — the single
      entry point for every {!Step.t} form. *)

  val attr : t -> Ident.t -> string -> (Value.t, Error.t) result
  (** Observe an attribute (derived attributes are computed; inherited
      ones delegate to base aspects). *)

  val eval : t -> string -> (Value.t, Error.t) result
  (** Evaluate an expression in global scope, e.g.
      [{|DEPT("d").manager|}].  Unsupported on a sharded session
      (global scope spans shards). *)

  val extension : t -> string -> Ident.t list
  (** Living members of a class (union over the shards when sharded). *)

  val run_active : ?fuel:int -> t -> Event.t list
  (** Fire enabled active events to quiescence; returns them in order
      (shard order when sharded — active events never cross shards, by
      the partition invariant). *)

  val save : t -> string
  (** {!Persist.save} of the session's state.  For a sharded session
      the disjoint per-shard dumps are merged; since dumps are ordered
      by object identity, the result is bit-identical to the dump of an
      equivalent single-engine session. *)

  val view : t -> string -> Interface.t option
  val views : t -> (string * Interface.t) list
end

val parse_spec : string -> (Ast.spec, Error.t) result
(** Parse a specification source text, keeping the error location. *)

val step : Session.t -> Step.t -> Engine.step_result
(** = {!Session.step}. *)

(** {1 Front end} *)

val check : Ast.spec -> Check_error.t list
(** Static diagnostics (errors and warnings). *)

val pretty : Ast.spec -> string
(** Canonical concrete syntax (re-parseable). *)

val ident : string -> Value.t -> Ident.t
