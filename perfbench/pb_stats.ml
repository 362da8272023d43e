(* Sample containers and summaries. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A growable vector of ints (latency samples in ns). *)
module Vec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 4096 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let d = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 d 0 v.len;
      v.data <- d
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let length v = v.len
  let get v i = v.data.(i)

  let mean v =
    if v.len = 0 then 0.
    else begin
      let s = ref 0 in
      for i = 0 to v.len - 1 do s := !s + v.data.(i) done;
      float !s /. float v.len
    end

  let sorted v =
    let a = Array.sub v.data 0 v.len in
    Array.sort compare a;
    a
end

(* Nearest-rank quantile of a sorted array; 0 when empty. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Log-bucketed histogram of non-negative ns values, 1% relative
   resolution: constant memory however many spans a replay records. *)
module Hist = struct
  let base = log 1.01
  let nb = 2600 (* covers 0 .. ~1.8e11 ns *)

  type t = { counts : int array; mutable n : int; mutable sum : int }

  let create () = { counts = Array.make nb 0; n = 0; sum = 0 }

  let add h x =
    let x = max 0 x in
    let b = min (nb - 1) (int_of_float (log (float (x + 1)) /. base)) in
    h.counts.(b) <- h.counts.(b) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum + x

  (* geometric middle of the bucket holding the q-quantile *)
  let quantile h q =
    if h.n = 0 then 0.
    else begin
      let target = max 1 (int_of_float (Float.ceil (q *. float h.n))) in
      let acc = ref 0 and b = ref 0 in
      while !acc + h.counts.(!b) < target do
        acc := !acc + h.counts.(!b);
        incr b
      done;
      (exp ((float !b +. 0.5) *. base)) -. 1.
    end

  let mean h = if h.n = 0 then 0. else float h.sum /. float h.n
end
