(* Measurement helpers shared by the three workloads. *)

module Clock = Hb_obs.Clock
module Json = Hb_obs.Json

let now_ns = Clock.now_ns
let secs_since t0 = Clock.elapsed_s ~t0

(* [f ()] and the wall seconds it took. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

(* Minor-heap words allocated by this domain so far.  Exact and
   repeatable as long as no other thread allocates meanwhile, which is
   why the workloads that report allocation run single-threaded. *)
let minor_words () = Gc.minor_words ()

(* Peak resident set of this process (VmHWM), in kB; 0 when the kernel
   does not expose it. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> 0
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d" Fun.id
            else scan ()
        in
        scan ())

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.

(* Fisher-Yates permutation drawn from the workload seed: the only
   thing a seed changes on workloads whose inputs are fixed programs. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Hb_fault.Prng.below rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Run whole rounds of the same operations: at least one, then another
   while the time used plus half a mean round still fits in [seconds].
   A round never stops half way, so every run does the same mix of work
   and rates pooled over a run do not depend on where it was cut. *)
let rounds ~seconds f =
  let t0 = now_ns () in
  let rec go n =
    f n;
    let el = secs_since t0 in
    let mean = el /. float_of_int (n + 1) in
    if el +. (mean /. 2.) < seconds then go (n + 1) else n + 1
  in
  go 0

(* ---- output checks ---------------------------------------------------- *)

(* A check that failed on an operation that otherwise completed: the
   run reports [correct = false]. *)
let incorrect = ref []

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        Printf.eprintf "[perfbench] check failed: %s\n%!" msg;
        incorrect := msg :: !incorrect
      end)
    fmt

(* ---- files under the checkout ----------------------------------------- *)

(* Everything the benchmark writes lives here, inside the checkout. *)
let out_dir = Filename.concat "perfbench" "_out"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- the reference counts ---------------------------------------------- *)

(* [BENCH_hardbound.json] beside this file is a copy of the repository's
   committed baseline; [dune exec bench/main.exe -- --baseline-write F]
   remakes it.  (workload, config) -> (instructions, cycles). *)
let reference () =
  let path = Filename.concat "perfbench" "BENCH_hardbound.json" in
  let tbl = Hashtbl.create 64 in
  let int_of k j =
    match Option.bind (Json.member k j) Json.to_int with
    | Some v -> v
    | None -> failwith (path ^ ": missing " ^ k)
  in
  let list_of k j =
    match Option.bind (Json.member k j) Json.to_list with
    | Some l -> l
    | None -> failwith (path ^ ": missing " ^ k)
  in
  let str_of k j =
    match Json.member k j with
    | Some (Json.String s) -> s
    | _ -> failwith (path ^ ": missing " ^ k)
  in
  List.iter
    (fun w ->
      let name = str_of "name" w in
      List.iter
        (fun r ->
          Hashtbl.replace tbl
            (name, str_of "config" r)
            (int_of "instructions" r, int_of "cycles" r))
        (list_of "runs" w))
    (list_of "workloads" (Json.of_string (read_file path)));
  tbl

(* ---- the result line ---------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* ---- host speed --------------------------------------------------------- *)

(* The reference host's speed wanders by a third, over seconds and over
   minutes, with CPU time equal to wall time: the neighbours' load, not
   scheduling.  A fixed loop timed beside the work tracks it.  The loop
   is the benchmark's own, so no change to the simulator moves it, and
   it allocates nothing, so no GC setting does.  Half of it is
   arithmetic over an array that stays in the L1 cache, half a small
   bytecode interpreter, like the simulator's dispatch. *)
let cal_a = Array.make 1024 0
let cal_mem = Array.make 4096 0

let calibrate () =
  let a = cal_a and mem = cal_mem in
  Array.iteri (fun i _ -> a.(i) <- i) a;
  Array.fill mem 0 4096 0;
  let acc = ref 0 in
  for i = 1 to 6_000_000 do
    let j = (i * 7) land 1023 in
    let v = Array.unsafe_get a j in
    Array.unsafe_set a j (((v * 31) + i) land 0xffffff);
    acc := !acc + v
  done;
  let pc = ref 0 and r = ref 1 in
  for _ = 1 to 3_000_000 do
    (match (!pc * 37) mod 7 with
    | 0 -> r := !r + 1
    | 1 -> mem.(!r land 4095) <- !acc
    | 2 -> acc := !acc + mem.((!r * 13) land 4095)
    | 3 -> r := !r lxor (!acc land 0xff)
    | 4 -> acc := (!acc * 3) land 0xfffffff
    | _ -> r := !r + (!acc land 7));
    pc := (!pc + 1) land 255
  done;
  !acc

(* Seconds [calibrate] takes on the reference host running fast. *)
let calibrate_ref_s = 0.025

(* (when, seconds [calibrate] took), newest first *)
let speed = ref []

(* Take a sample, in wall time: the loops that take them run alone. *)
let sample_speed () =
  let _, s = timed (fun () -> Sys.opaque_identity (calibrate ())) in
  speed := (now_ns (), s) :: !speed

(* A sample unless the last one is less than a second old: the loops
   call this between operations. *)
let tick_speed () =
  match !speed with
  | (t, _) :: _ when secs_since t < 1. -> ()
  | _ -> sample_speed ()

(* [f ()], its result and its seconds scaled to the reference host's
   speed by the median of the samples taken from a second before it to a
   second after.  The samples on either side of it are in that window,
   since [tick_speed] takes one whenever the last is a second old. *)
let timed_scaled f =
  tick_speed ();
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  tick_speed ();
  let lo = Int64.sub t0 1_000_000_000L and hi = Int64.add t1 1_000_000_000L in
  let near = List.filter (fun (t, _) -> t >= lo && t <= hi) !speed in
  let secs = Int64.to_float (Int64.sub t1 t0) /. 1e9 in
  (r, secs *. calibrate_ref_s /. median (List.map snd near))

(* Set-up is repeated and its median reported, so one slow page-in
   does not decide the figure; each repetition starts from a collected
   heap, so it does not pay for the garbage of the one before, and is
   scaled to the reference host's speed by a sample taken just before
   it.  The last result is the one used and [discard] releases the
   others. *)
let setup ?(discard = ignore) ~times f =
  let rec go i acc =
    Gc.full_major ();
    sample_speed ();
    let r, s = timed f in
    let s = s *. calibrate_ref_s /. snd (List.hd !speed) in
    if i + 1 >= times then (r, median (s :: acc))
    else begin
      discard r;
      go (i + 1) (s :: acc)
    end
  in
  go 0 []

(* The end-to-end figures, the same on every workload, each about the
   workload's own timed operations: how many complete per second, the
   median seconds of one (both from the operations' [secs], scaled to
   the reference host's speed; [parallel] operations run at once), and
   the minor words one allocates.  Peak RSS and set-up time come apart. *)
let e2e ?(parallel = 1) ~secs ~words_per_op () =
  [
    m "ops_per_s" "ops/s"
      (float_of_int (List.length secs) *. float_of_int parallel /. sum secs);
    m "op_latency_p50_s" "s" (median secs);
    m "alloc_kwords_per_op" "kwords/op" (words_per_op /. 1000.);
  ]

let peak_rss () = m "peak_rss_mb" "MB" (float_of_int (peak_rss_kb ()) /. 1024.)

(* The tracing overhead: traced minus untraced figures of one run. *)
let trace_overhead ~plain ~traced =
  List.map2
    (fun u t -> m ("trace_overhead." ^ u.name) u.unit_ (t.value -. u.value))
    plain traced
