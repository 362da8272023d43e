(* Seeded request streams for the served workloads.

   Every connection owns a generator built from (seed, connection): a
   list of setup phases (all connections finish a phase before any
   starts the next — the barrier) and an endless steady stream.  The
   generator keeps its own model of the objects it owns and uses it
   only to pick requests with a fixed accepted/rejected mix; whether a
   request is accepted is decided by the program and checked against a
   sequential in-process replay, never by this model.

   Connections own disjoint objects (the PERSON population of the dept
   workloads is shared, but no steady request mutates a PERSON's
   attributes), so every verdict and the final state are independent
   of how the server interleaves the connections. *)

type kind = Write | Read

type request = { body : string; kind : kind }

type t = {
  setup : string list list;  (** phases of request bodies, in order *)
  next : unit -> request;  (** the steady stream *)
}

type workload = {
  name : string;
  spec : string;  (** specification source served to the program *)
  conns : int;
  depth : int;  (** requests in flight per connection *)
  wal : bool;
  setups : int;  (** set-ups timed per run; their median is [setup_s] *)
  rss_after : int;
      (** steady responses (warm-up included) after which the server's
          peak RSS is read, so that a workload whose state grows is
          compared at equal work *)
  make : seed:int -> conn:int -> t;
}

let line ~id body = Printf.sprintf {|{"id":%d,%s}|} id body

let hello = Printf.sprintf {|"op":"hello","version":%d|} Protocol.version
let rng ~seed ~conn = Random.State.make [| 0x7031; seed; conn |]
let pick st a = a.(Random.State.int st (Array.length a))
let w body = { body; kind = Write }
let r body = { body; kind = Read }

let id_arg cls key = Printf.sprintf {|{"$id":{"cls":"%s","key":"%s"}}|} cls key

let fire cls key event args =
  Printf.sprintf {|"op":"fire","cls":"%s","key":"%s","event":"%s","args":[%s]|}
    cls key event args

let date st =
  Printf.sprintf {|{"$date":"19%02d-%02d-%02d"}|}
    (70 + Random.State.int st 30)
    (1 + Random.State.int st 12)
    (1 + Random.State.int st 28)

(* ------------------------------------------------------------------ *)
(* wire_cells: many cheap requests, so framing and batching dominate  *)
(* ------------------------------------------------------------------ *)

let cells_per_conn = 64

let wire_cells ~seed ~conn =
  let st = rng ~seed ~conn in
  let cls i = Printf.sprintf "CELL%d" (i mod 8) in
  let key i = Printf.sprintf "w%d_%02d" conn i in
  let total = Array.make cells_per_conn 0 in
  let setup =
    [
      hello
      :: List.init cells_per_conn (fun i ->
             Printf.sprintf {|"op":"create","cls":"%s","key":"%s"|} (cls i)
               (key i));
    ]
  in
  let next () =
    let i = Random.State.int st cells_per_conn in
    let p = Random.State.int st 100 in
    if p < 25 then begin
      (* one add in five is refused by { Total + n >= 0 } *)
      let n =
        if Random.State.int st 5 = 0 then -(total.(i) + 1 + Random.State.int st 3)
        else Random.State.int st 10 - min total.(i) 5
      in
      if total.(i) + n >= 0 then total.(i) <- total.(i) + n;
      w (fire (cls i) (key i) "add" (string_of_int n))
    end
    else if p < 60 then
      r (Printf.sprintf {|"op":"attr","cls":"%s","key":"%s","attr":"Total"|}
           (cls i) (key i))
    else if p < 62 then
      (* few: each probe after a write freezes a view of all 128 cells *)
      r (Printf.sprintf {|"op":"enabled","cls":"%s","key":"%s"|} (cls i) (key i))
    else if p < 75 then
      r (Printf.sprintf {|"op":"extension","cls":"%s"|} (cls i))
    else r {|"op":"ping"|}
  in
  { setup; next }

(* ------------------------------------------------------------------ *)
(* society_dept: quantified permissions over a shared PERSON extension *)
(* ------------------------------------------------------------------ *)

(* dept.trl has no interface class; the served specification appends
   one so that the [view] op queries a real view of the same DEPTs. *)
let dept_view =
  {|
interface class DEPT_STAFF
  encapsulating DEPT;
  attributes
    est_date: date;
    employees: set(|PERSON|);
end interface class DEPT_STAFF;
|}

let society_persons = 128
let society_depts = 4

let person i = Printf.sprintf "p%03d" i

type dept = {
  dkey : string;
  employed : bool array;
  hired : bool array;  (** ever hired: fire is permitted *)
  mutable count : int;
}

let new_dept dkey n =
  { dkey; employed = Array.make n false; hired = Array.make n false; count = 0 }

(* a random index satisfying [ok], scanning from a random start *)
let find st n ok =
  let start = Random.State.int st n in
  let rec go k =
    if k = n then None
    else
      let i = (start + k) mod n in
      if ok i then Some i else go (k + 1)
  in
  go 0

let hire d i =
  d.employed.(i) <- true;
  d.hired.(i) <- true;
  d.count <- d.count + 1;
  w (fire "DEPT" d.dkey "hire" (id_arg "PERSON" (person i)))

let fire_person d i =
  if d.employed.(i) then begin
    d.employed.(i) <- false;
    d.count <- d.count - 1
  end;
  w (fire "DEPT" d.dkey "fire" (id_arg "PERSON" (person i)))

let society_dept ~seed ~conn =
  let st = rng ~seed ~conn in
  let n = society_persons in
  let depts =
    Array.init society_depts (fun k ->
        new_dept (Printf.sprintf "s%d_%d" conn k) n)
  in
  let half = n / 2 in
  let setup =
    [
      hello
      :: List.init half (fun k ->
             Printf.sprintf {|"op":"create","cls":"PERSON","key":"%s"|}
               (person ((conn * half) + k)));
      Array.to_list
        (Array.map
           (fun d ->
             Printf.sprintf {|"op":"create","cls":"DEPT","key":"%s","args":[%s]|}
               d.dkey (date st))
           depts);
      (* every PERSON hired and fired once by every DEPT: the
         { sometime(P in employees) => ... } instances of closure all
         reach the state the steady stream keeps them in *)
      List.concat_map
        (fun d ->
          List.concat
            (List.init n (fun i -> [ (hire d i).body; (fire_person d i).body ])))
        (Array.to_list depts);
    ]
  in
  let rec next () =
    let d = pick st depts in
    let p = Random.State.int st 100 in
    if p < 22 then
      (* accepted hire or fire, keeping the staff between 12 and 28 *)
      let hiring =
        d.count < 12 || (d.count <= 28 && Random.State.bool st)
      in
      if hiring then
        match find st n (fun i -> not d.employed.(i)) with
        | Some i -> hire d i
        | None -> next ()
      else
        match find st n (fun i -> d.employed.(i)) with
        | Some i -> fire_person d i
        | None -> next ()
    else if p < 25 then
      (* rejected: { not(P in employees) } hire(P) *)
      match find st n (fun i -> d.employed.(i)) with
      | Some i -> w (fire "DEPT" d.dkey "hire" (id_arg "PERSON" (person i)))
      | None -> next ()
    else if p < 28 then
      (* rejected: { sometime(after(hire(P))) } fire(P) *)
      match find st n (fun i -> not d.hired.(i)) with
      | Some i -> w (fire "DEPT" d.dkey "fire" (id_arg "PERSON" (person i)))
      | None -> next ()
    else if p < 46 then
      match Random.State.int st 4 with
      | 0 ->
          r (Printf.sprintf {|"op":"attr","cls":"PERSON","key":"%s","attr":"Grade"|}
               (person (Random.State.int st n)))
      | k ->
          r (Printf.sprintf {|"op":"attr","cls":"DEPT","key":"%s","attr":"%s"|}
               d.dkey
               (match k with 1 -> "employees" | 2 -> "est_date" | _ -> "manager"))
    else if p < 56 then
      r (Printf.sprintf {|"op":"eval","expr":"%s"|}
           (if Random.State.bool st then
              Printf.sprintf {|card(DEPT(\"%s\").employees)|} d.dkey
            else Printf.sprintf {|DEPT(\"%s\").employees|} d.dkey))
    else if p < 62 then r {|"op":"view","view":"DEPT_STAFF"|}
    else if p < 70 then
      r (Printf.sprintf {|"op":"extension","cls":"%s"|}
           (if Random.State.int st 4 = 0 then "DEPT" else "PERSON"))
    else if p < 85 then
      r (Printf.sprintf {|"op":"enabled","cls":"DEPT","key":"%s"|} d.dkey)
    else r (Printf.sprintf {|"op":"candidates","cls":"DEPT","key":"%s"|} d.dkey)
  in
  { setup; next }

(* ------------------------------------------------------------------ *)
(* durable_writes: DEPT life cycles, every commit through the WAL      *)
(* ------------------------------------------------------------------ *)

let durable_persons = 8

let durable_writes ~seed ~conn =
  let st = rng ~seed ~conn in
  let n = durable_persons in
  let half = n / 2 in
  let setup =
    [
      hello
      :: List.init half (fun k ->
             Printf.sprintf {|"op":"create","cls":"PERSON","key":"%s"|}
               (person ((conn * half) + k)));
    ]
  in
  let pending = Queue.create () in
  let cycle = ref 0 in
  (* one DEPT life cycle: establishment, hires, new_manager (a global
     interaction: DEPT and PERSON commit together), fires, closure *)
  let life_cycle () =
    let d = new_dept (Printf.sprintf "d%d_%05d" conn !cycle) n in
    incr cycle;
    let push x = Queue.push x pending in
    let read () =
      (* no enabled/candidates probes here: a view freezes every object,
         and the closed DEPTs of earlier life cycles accumulate *)
      push
        (if Random.State.bool st then
           r (Printf.sprintf {|"op":"attr","cls":"DEPT","key":"%s","attr":"employees"|} d.dkey)
         else r (Printf.sprintf {|"op":"eval","expr":"DEPT(\"%s\").manager"|} d.dkey))
    in
    push
      (w (Printf.sprintf {|"op":"create","cls":"DEPT","key":"%s","args":[%s]|}
            d.dkey (date st)));
    for _ = 1 to 1 + Random.State.int st 4 do
      match find st n (fun i -> not d.employed.(i)) with
      | Some i -> push (hire d i)
      | None -> ()
    done;
    let employed () = List.filter (fun i -> d.employed.(i)) (List.init n Fun.id) in
    if Random.State.int st 10 < 3 then
      push (w (fire "DEPT" d.dkey "hire" (id_arg "PERSON" (person (List.hd (employed ()))))));
    if Random.State.bool st then read ();
    let staff = Array.of_list (employed ()) in
    push (w (fire "DEPT" d.dkey "new_manager" (id_arg "PERSON" (person (pick st staff)))));
    (* closure is refused while someone hired was never fired *)
    if Random.State.int st 5 = 0 then push (w (fire "DEPT" d.dkey "closure" ""));
    Array.iter (fun i -> push (fire_person d i)) staff;
    (if Random.State.int st 5 = 0 then
       match find st n (fun i -> not d.hired.(i)) with
       | Some i -> push (w (fire "DEPT" d.dkey "fire" (id_arg "PERSON" (person i))))
       | None -> ());
    read ();
    push (w (fire "DEPT" d.dkey "closure" ""))
  in
  let next () =
    if Queue.is_empty pending then life_cycle ();
    Queue.pop pending
  in
  { setup; next }

(* ------------------------------------------------------------------ *)
(* The served workloads                                                *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let workload name =
  let spec file = read_file (Filename.concat "examples/specs" file) in
  match name with
  | "wire_cells" ->
      Some
        { name; spec = spec "cells.trl"; conns = 2; depth = 16; wal = false;
          setups = 15; rss_after = 200_000; make = wire_cells }
  | "society_dept" ->
      Some
        { name; spec = spec "dept.trl" ^ dept_view; conns = 2; depth = 1;
          wal = false; setups = 5; rss_after = 20_000; make = society_dept }
  | "durable_writes" ->
      Some
        { name; spec = spec "dept.trl"; conns = 2; depth = 64; wal = true;
          setups = 15; rss_after = 100_000; make = durable_writes }
  | _ -> None
