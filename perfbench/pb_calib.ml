(* The host-speed calibration.

   The machine is a few cores of a shared host whose speed drifts by up
   to ~2x over minutes, so a time measured at one moment cannot be
   compared with one measured at another.  The benchmark therefore times
   a fixed kernel of its own, interleaved with the measured work on the
   same CPU, and reports every gated time in reference seconds: the
   measured time scaled by [reference_ns / kernel_ns], where [kernel_ns]
   is the run's median kernel time.  A slower program moves the metric;
   a slower host moves the kernel and the workload alike.

   The kernel is timed in CPU time (user + system), so the moments the
   host does not run this CPU at all (steal) do not count; they are
   taken out of the measured time separately ([steal_ns]).

   The kernel does the kind of work the program does (allocation, maps,
   hashing, sorting) and calls nothing of the program, so a change to
   the program cannot move it. *)

module M = Map.Make (Int)

(* the kernel's time on the reference host, by definition *)
let reference_ns = 30_000_000.

let work () =
  let st = Random.State.make [| 42 |] in
  let m = ref M.empty and h = Hashtbl.create 1024 in
  for i = 0 to 19_999 do
    let k = Random.State.int st 5000 in
    m := M.add k i !m;
    Hashtbl.replace h (string_of_int k) i;
    if i land 7 = 0 then m := M.remove (Random.State.int st 5000) !m
  done;
  let l = List.init 20_000 (fun _ -> Random.State.int st 1_000_000) in
  M.cardinal !m + Hashtbl.length h + List.hd (List.sort compare l)

let sink = ref 0

let cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)

(* CPU ns of one run of the kernel *)
let kernel_ns () =
  let t0 = cpu_ns () in
  sink := !sink + work ();
  cpu_ns () - t0

(* The kernel is always timed in a coprocess of its own ([perfbench.exe
   calib], one run per line it reads), so that it runs in the same small
   heap on every workload, not in a load process whose heap grows with
   the samples it keeps. *)
type coprocess = { chans : in_channel * out_channel; pid : int; mutable samples : int list }

let start () =
  let chans = Unix.open_process_args Sys.executable_name [| Sys.executable_name; "calib" |] in
  { chans; pid = Unix.process_pid chans; samples = [] }

let sample c =
  let ic, oc = c.chans in
  output_string oc "k\n";
  flush oc;
  c.samples <- int_of_string (input_line ic) :: c.samples

let stop c = ignore (Unix.close_process c.chans)

(* the loop of [perfbench.exe calib] *)
let serve () =
  try
    while true do
      ignore (input_line stdin);
      Printf.printf "%d\n%!" (kernel_ns ())
    done
  with End_of_file -> ()

(* measured seconds -> reference seconds, from the run's kernel samples *)
let scale samples =
  match samples with
  | [] -> 1.
  | l -> reference_ns /. Pb_stats.median_float (List.map float l)

(* ns the host has not run CPU [cpu] (the steal column of /proc/stat,
   in clock ticks of 10 ms); 0 where it is not reported *)
let steal_ns cpu =
  let name = "cpu" ^ string_of_int cpu in
  match In_channel.with_open_text "/proc/stat" In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
      List.fold_left
        (fun acc l ->
          match String.split_on_char ' ' l with
          | n :: fields when n = name -> (
              match List.nth_opt fields 7 with
              | Some s -> Option.value ~default:0 (int_of_string_opt s) * 10_000_000
              | None -> acc)
          | _ -> acc)
        0
        (String.split_on_char '\n' text)
