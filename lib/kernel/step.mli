(** The unified step request: every way of asking the engine to change
    the community, as one value.

    The four firing shapes ([Fire]/[Sync]/[Seq]/[Txn]) and the
    birth/death conveniences are constructors of a single type, so a
    step can be built by local code, decoded off a wire protocol frame
    ({!Protocol} in [lib/server]) or replayed from a log, and executed
    by the one entry point {!Engine.step}. *)

type t =
  | Fire of Event.t
      (** one event, closed under synchronous event calling *)
  | Sync of Event.t list
      (** several events in one synchronous step (event sharing) *)
  | Seq of Event.t list
      (** a sequence of events as one atomic transaction *)
  | Txn of Event.t list list
      (** general form: a queue of micro-steps, one transaction *)
  | Create of {
      cls : string;
      key : Value.t;
      event : string option;  (** default: the unique birth event *)
      args : Value.t list;
    }
  | Destroy of {
      id : Ident.t;
      event : string option;  (** default: the unique death event *)
      args : Value.t list;
    }

val micro_steps : t -> Event.t list list option
(** The explicit micro-step queue of the firing shapes; [None] for
    [Create]/[Destroy] (their event is resolved against the schema at
    execution time). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
