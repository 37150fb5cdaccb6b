(* Workload [campaign]: a closed loop of two clients against a
   simulation daemon, forked into its own process, over loopback HTTP.
   Each client submits a small fault campaign, polls it, fetches the
   report, and only then submits its next job.  Golden runs, short
   suffix runs from restored snapshots, injected faults driving the trap
   paths, snapshot capture/digest, fsync'd journal appends and the serve
   layer's HTTP, queue and fork are the work here.  After the loop the
   run's specs run again in-process, as a check and for the allocation
   count. *)

module Json = Hb_obs.Json
module Machine = Hb_cpu.Machine
module Build = Hb_runtime.Build
module Codegen = Hb_minic.Codegen
module Encoding = Hardbound.Encoding
module Campaign = Hb_fault.Campaign
module Prng = Hb_fault.Prng
module Journal = Hb_recover.Journal
module Proto = Hb_serve.Proto
module Daemon = Hb_serve.Daemon

(* ---- a minimal HTTP/1.1 client over loopback ------------------------- *)

let request ~port ~meth ~path ?(body = "") () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
           Content-Length: %d\r\nConnection: close\r\n\r\n%s"
          meth path (String.length body) body
      in
      let rec send off =
        if off < String.length req then
          send (off + Unix.write_substring sock req off (String.length req - off))
      in
      send 0;
      let buf = Buffer.create 4096 and chunk = Bytes.create 8192 in
      let rec recv () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          recv ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ()
      in
      recv ();
      let raw = Buffer.contents buf in
      let code =
        match String.split_on_char ' ' raw with
        | _ :: c :: _ -> Option.value (int_of_string_opt c) ~default:0
        | _ -> 0
      in
      let rec body_at i =
        if i + 3 >= String.length raw then String.length raw
        else if String.sub raw i 4 = "\r\n\r\n" then i + 4
        else body_at (i + 1)
      in
      let b = body_at 0 in
      (code, String.sub raw b (String.length raw - b)))

let member_string k body =
  match Json.member k (Json.of_string body) with
  | Some (Json.String s) -> Some s
  | _ -> None
  | exception Json.Parse_error _ -> None

(* ---- the job mix ------------------------------------------------------ *)

(* Every round submits the same four (program, encoding) slots, so the
   seed never changes the mix of work; it draws each slot's injection
   seed, once a run, so that every round repeats the same four specs.
   Power, the shortest Olden program, fills three slots
   so the median latency falls among like jobs; perimeter adds a second
   program. *)
let slots =
  [
    ("power", Encoding.Extern4);
    ("power", Encoding.Intern4);
    ("power", Encoding.Intern11);
    ("perimeter", Encoding.Extern4);
  ]

let spec_for ?(runs = 1) ~tenant (workload, scheme) seed =
  { Proto.default with Proto.tenant; workload; mode = Codegen.Hardbound; scheme; runs; seed }

(* A run's specs: one injection seed per slot, drawn in order from the
   workload seed's stream. *)
let run_specs ~seed =
  let rng = Prng.create ~seed in
  List.map (fun slot -> (slot, Prng.derive_seed rng)) slots

(* ---- one client job ---------------------------------------------------- *)

type job = {
  spec : Proto.spec;
  latency_s : float;
  submit_s : float;
  queue_wait_s : float;
  report : string option;  (* None: overloaded, poisoned or failed *)
}

let run_job ~port ~group spec =
  Spans.span ~group "campaign.job" @@ fun () ->
  let t0 = Util.now_ns () in
  let body = Json.to_string (Proto.spec_to_json spec) in
  let (code, ack), submit_s =
    Util.timed (fun () ->
        Spans.span "serve.submit" (fun () ->
            request ~port ~meth:"POST" ~path:"/jobs" ~body ()))
  in
  let fail why =
    Printf.eprintf "[perfbench] job %s/%s: %s\n%!" spec.Proto.workload
      (Encoding.scheme_name spec.Proto.scheme) why;
    { spec; latency_s = Util.secs_since t0; submit_s; queue_wait_s = 0.; report = None }
  in
  match (code, member_string "job" ack) with
  | 202, Some jid ->
    let acked = Util.now_ns () in
    let started = ref None in
    (* poll until terminal; a job still unfinished after two minutes
       counts as failed rather than hanging the run *)
    let rec wait () =
      let _, st = request ~port ~meth:"GET" ~path:("/jobs/" ^ jid) () in
      match member_string "state" st with
      | Some "done" -> Ok ()
      | Some (("poisoned" | "failed") as s) -> Error s
      | Some s ->
        if s = "running" && !started = None then started := Some (Util.now_ns ());
        if Util.secs_since t0 > 120. then Error "timed out"
        else begin
          Unix.sleepf 0.05;
          wait ()
        end
      | None -> Error ("bad status reply: " ^ st)
    in
    (match Spans.span "serve.wait" wait with
    | Error why -> fail why
    | Ok () ->
      let code, report =
        Spans.span "serve.report" (fun () ->
            request ~port ~meth:"GET" ~path:("/jobs/" ^ jid ^ "/report") ())
      in
      if code <> 200 then fail (Printf.sprintf "report answered %d" code)
      else
        let start = Option.value !started ~default:(Util.now_ns ()) in
        Printf.eprintf "[perfbench] %s %s seed %d: %.3f s\n%!" spec.Proto.workload
          (Encoding.scheme_name spec.Proto.scheme) spec.Proto.seed (Util.secs_since t0);
        {
          spec;
          latency_s = Util.secs_since t0;
          submit_s;
          queue_wait_s = Hb_obs.Clock.s_of_ns (Int64.sub start acked);
          report = Some report;
        })
  | c, _ -> fail (Printf.sprintf "submit answered %d: %s" c (String.trim ack))

(* ---- report checks ----------------------------------------------------- *)

let jint k j = Option.bind (Json.member k j) Json.to_int

(* Outcome tallies sum to the run count; the golden run retired exactly
   the instructions of a plain run of that program and encoding. *)
let report_ok ~refs (spec : Proto.spec) report =
  match Json.of_string report with
  | exception Json.Parse_error e -> Error ("unparsable report: " ^ e)
  | j ->
    let total =
      Option.bind (Json.member "coverage" j) Json.to_list
      |> Option.map (List.filter (fun e -> Json.member "site" e = Some (Json.String "total")))
    in
    let tally e =
      List.fold_left
        (fun acc k -> acc + Option.value (jint k e) ~default:0)
        0
        [ "detected"; "masked"; "silent_corruption"; "divergence"; "hang"; "crash" ]
    in
    let runs = Option.bind (Json.member "runs" j) Json.to_list in
    let golden = Option.bind (Json.member "golden" j) (jint "instrs") in
    let expect =
      Hashtbl.find_opt refs
        (spec.Proto.workload, "hb-" ^ Encoding.scheme_name spec.Proto.scheme)
    in
    (match (total, runs, golden, expect) with
    | Some [ t ], Some rl, Some g, Some (ri, _) ->
      if tally t <> spec.Proto.runs || jint "runs" t <> Some spec.Proto.runs then
        Error "outcome tallies do not sum to the run count"
      else if List.length rl <> spec.Proto.runs then Error "wrong number of run records"
      else if g <> ri then
        Error (Printf.sprintf "golden_instrs %d, plain run retires %d" g ri)
      else Ok ()
    | _ -> Error "report lacks coverage/runs/golden, or no reference count")

(* ---- the closed loop ---------------------------------------------------- *)

type phase = {
  jobs : job list;
  specs : ((string * Encoding.scheme) * int) list;  (* every round's *)
  attempted : int;
  failed : int;
}

let clients = [ "client-a"; "client-b" ]

let phase ~seconds ~specs ~port ~refs =
  let jobs = ref [] and failed = ref 0 and group = ref 0 in
  let mu = Mutex.create () in
  let round _ =
    (* client i starts at slot 2i: both clients run the same four specs
       in a different order, so each spec is served twice, by different
       clients at different times, and the two loads are equal *)
    let per_client i tenant =
      let n = List.length specs in
      List.init n (fun k ->
          let slot, seed = List.nth specs ((k + (2 * i)) mod n) in
          spec_for ~tenant slot seed)
    in
    let results = Array.make (List.length clients) [] in
    let threads =
      List.mapi
        (fun i tenant ->
          Thread.create
            (fun () ->
              results.(i) <-
                List.map
                  (fun spec ->
                    let g = Mutex.protect mu (fun () -> incr group; !group) in
                    run_job ~port ~group:g spec)
                  (per_client i tenant))
            ())
        clients
    in
    List.iter Thread.join threads;
    let done_ = List.concat (Array.to_list results) in
    (* checks: each report on its own, then the pair for every spec; a
       job that fails one is a failed operation *)
    let bad = ref 0 in
    let fail_check (spec : Proto.spec) why =
      Printf.eprintf "[perfbench] check failed: %s seed %d: %s\n%!"
        spec.Proto.workload spec.Proto.seed why;
      incr bad
    in
    List.iter
      (fun j ->
        match j.report with
        | None -> incr bad
        | Some r -> (
          match report_ok ~refs j.spec r with
          | Ok () -> ()
          | Error e -> fail_check j.spec e))
      done_;
    List.iter
      (fun (slot, seed) ->
        match
          List.filter
            (fun j ->
              (j.spec.Proto.workload, j.spec.Proto.scheme) = slot
              && j.spec.Proto.seed = seed && j.report <> None)
            done_
        with
        | [ a; b ] when a.report <> b.report ->
          fail_check a.spec "two clients got different reports";
          fail_check b.spec "two clients got different reports"
        | _ -> ())
      specs;
    failed := !failed + !bad;
    jobs := !jobs @ done_
  in
  ignore (Util.rounds ~seconds round);
  { jobs = !jobs; specs; attempted = List.length !jobs; failed = !failed }

(* ---- the daemon ---------------------------------------------------------- *)

(* The daemon runs in a child process forked before the benchmark
   starts any thread, so the workers it forks in turn come from a
   process that holds only the daemon's own threads, as under
   [hardbound_run --daemon].  The child serves until its control pipe
   closes. *)
type daemon = { pid : int; port : int; ctl : Unix.file_descr; dir : string }

let start_daemon k =
  let dir = Filename.concat Util.out_dir (Printf.sprintf "daemon-%d-%d" (Unix.getpid ()) k) in
  Util.rm_rf dir;
  Util.mkdir_p Util.out_dir;
  let port_r, port_w = Unix.pipe ~cloexec:true () in
  let ctl_r, ctl_w = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close port_r;
    Unix.close ctl_w;
    let code =
      try
        let d = Daemon.start (Daemon.default ~port:0 ~dir) in
        let msg = string_of_int (Daemon.port d) ^ "\n" in
        ignore (Unix.write_substring port_w msg 0 (String.length msg));
        Unix.close port_w;
        let rec hold () =
          match Unix.read ctl_r (Bytes.create 1) 0 1 with
          | 0 -> ()
          | _ -> hold ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> hold ()
        in
        hold ();
        Daemon.stop d;
        0
      with e ->
        prerr_endline ("[perfbench] daemon: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    Unix.close port_w;
    Unix.close ctl_r;
    let buf = Bytes.create 32 in
    let n = Unix.read port_r buf 0 32 in
    Unix.close port_r;
    let port =
      match int_of_string_opt (String.trim (Bytes.sub_string buf 0 n)) with
      | Some p -> p
      | None -> failwith "the daemon did not start"
    in
    let code, _ = request ~port ~meth:"GET" ~path:"/healthz" () in
    if code <> 200 then failwith "daemon /healthz did not answer";
    { pid; port; ctl = ctl_w; dir }

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

let stop_daemon d =
  Unix.close d.ctl;
  reap d.pid;
  Util.rm_rf d.dir

(* The daemon the run uses, stopped exactly once: after the loop in a
   traced run (the in-process layers must run alone), else on exit. *)
let stop_once live =
  match !live with
  | Some d ->
    live := None;
    stop_daemon d
  | None -> ()

(* hb_serve_* gauges from /metrics, read at the end of every run so a
   worker pool shrunk by memory pressure shows instead of passing as
   noise. *)
let serve_gauges port =
  let _, body = request ~port ~meth:"GET" ~path:"/metrics" () in
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; v ] when String.length name > 9 && String.sub name 0 9 = "hb_serve_" ->
        Option.map (fun v -> (name, v)) (int_of_string_opt v)
      | _ -> None)
    (String.split_on_char '\n' body)

(* ---- in-process campaigns ---------------------------------------------- *)

(* Compiled images by (workload, mode), made in set-up for the job mix. *)
let images = Hashtbl.create 8

let image_for (spec : Proto.spec) =
  let key = (spec.Proto.workload, spec.Proto.mode) in
  match Hashtbl.find_opt images key with
  | Some i -> i
  | None ->
    let i = Layers.compile ~mode:spec.Proto.mode (Proto.source spec) in
    Hashtbl.replace images key i;
    i

(* the daemon's machine configuration for a spec *)
let config_for (spec : Proto.spec) =
  Build.config_for ~scheme:spec.Proto.scheme ~temporal:false
    ~max_instrs:Build.default_fuel spec.Proto.mode

let mk_for (spec : Proto.spec) =
  let image, globals = image_for spec in
  let config = config_for spec in
  fun () -> Spans.span "cpu.create" (fun () -> Machine.create ~config ~globals image)

type inproc = {
  spec : Proto.spec;
  campaign_s : float;
  golden_s : float;
  injection_s : float list;
  suffix_instrs : int;
  converged : int;
  words : float;  (* the whole campaign *)
  inj_words : float;  (* its injections *)
  creport : Campaign.report;
}

let in_process (spec : Proto.spec) =
  let mk = mk_for spec in
  let cfg = Proto.campaign_config spec in
  Hardbound.Checker.reset_tally ();
  let started = ref 0L and inj = ref [] and suffix = ref 0 and conv = ref 0 in
  Spans.span "fault.campaign" @@ fun () ->
  let w0 = Util.minor_words () in
  let golden, golden_s =
    Util.timed (fun () -> Spans.span "fault.golden" (fun () -> Campaign.prepare ~mk cfg))
  in
  let w1 = Util.minor_words () in
  let report =
    Spans.span "fault.injections" (fun () ->
        Campaign.execute_plan ~mk ~cfg ~golden
          ~on_start:(fun _ -> started := Util.now_ns ())
          ~observe:(fun r m ->
            suffix :=
              !suffix + (m.Machine.stats.Hb_cpu.Stats.instructions - r.Campaign.at_instr);
            match r.Campaign.status with
            | "converged" | "converged-after-divergence" -> incr conv
            | _ -> ())
          ~on_record:(fun _ -> inj := Util.secs_since !started :: !inj)
          ~prior:[] ())
  in
  let w2 = Util.minor_words () in
  {
    spec;
    campaign_s = golden_s +. Util.sum !inj;
    golden_s;
    injection_s = !inj;
    suffix_instrs = !suffix;
    converged = !conv;
    words = w2 -. w0;
    inj_words = w2 -. w1;
    creport = report;
  }

(* Every spec of the run, run in-process with nothing else
   running: its report must equal the daemon's byte for byte, and its
   minor words are the workload's allocation per job. *)
let references (p : phase) =
  List.map
    (fun (slot, seed) ->
      let r = in_process (spec_for ~tenant:(List.hd clients) slot seed) in
      let want = Json.to_string_pretty (Campaign.to_json r.creport) ^ "\n" in
      List.iter
        (fun (j : job) ->
          if (j.spec.Proto.workload, j.spec.Proto.scheme) = slot && j.spec.Proto.seed = seed
          then
            match j.report with
            | Some got ->
              Util.check (got = want)
                "%s seed %d: daemon report differs from the in-process campaign"
                j.spec.Proto.workload seed
            | None -> ())
        p.jobs;
      r)
    p.specs

(* The clients run side by side: the host seconds of the jobs are their
   summed latencies over the client count.  The wait at the end of a
   round for the slower client is left out: it is the loop's, and it
   changes with the injections the seed draws.  The latencies are not
   scaled to the host's speed: the jobs run in the daemon's workers on
   both cores, and a calibration loop run between rounds, when the
   daemon is idle, did not follow them. *)
let e2e (p : phase) (refs : inproc list) =
  let secs = List.filter_map (fun (j : job) -> Option.map (fun _ -> j.latency_s) j.report) p.jobs in
  Util.e2e ~parallel:(List.length clients) ~secs
    ~words_per_op:(Util.sum (List.map (fun r -> r.words) refs) /. float_of_int (List.length refs))
    ()

(* fsync'd journal appends of a campaign's own run records. *)
let journal_layer dir (r : Campaign.report) =
  let path = Filename.concat dir "layer-journal.jsonl" in
  let w = Journal.create path in
  let times =
    List.map
      (fun rec_ ->
        snd
          (Util.timed (fun () ->
               Spans.span "recover.append" (fun () ->
                   Journal.append w
                     (Campaign.run_record_json
                        ~window_interval:r.Campaign.config.Campaign.window_interval rec_)))))
      r.Campaign.records
  in
  Journal.close w;
  Sys.remove path;
  times

(* The fault, recover and serve layers, from daemon [jobs] and the
   in-process campaigns [results] of the same specs. *)
let campaign_layers ~jobs ~results ~workers =
  let nspec = float_of_int (List.length results) in
  let injections = List.concat_map (fun r -> r.injection_s) results in
  let ninj = float_of_int (List.length injections) in
  Util.mkdir_p Util.out_dir;
  let appends = List.concat_map (fun r -> journal_layer Util.out_dir r.creport) results in
  let overhead =
    List.map
      (fun r ->
        let same =
          List.filter_map
            (fun (d : job) ->
              if d.spec.Proto.seed = r.spec.Proto.seed && d.report <> None then
                Some d.latency_s
              else None)
            jobs
        in
        Util.median same -. r.campaign_s)
      results
  in
  let ok = List.filter (fun j -> j.report <> None) jobs in
  let nok = float_of_int (List.length ok) in
  let sum_i f = float_of_int (List.fold_left (fun n r -> n + f r) 0 results) in
  Util.
    [
      m "fault.golden_s" "s" (sum (List.map (fun r -> r.golden_s) results) /. nspec);
      m "fault.injection_ms" "ms" (sum injections *. 1000. /. ninj);
      m "fault.suffix_instrs_per_injection" "instrs" (sum_i (fun r -> r.suffix_instrs) /. ninj);
      m "fault.converged_share" "ratio" (sum_i (fun r -> r.converged) /. ninj);
      m "fault.alloc_kwords_per_injection" "kwords"
        (sum (List.map (fun r -> r.inj_words) results) /. ninj /. 1000.);
      m "recover.append_ms" "ms" (sum appends *. 1000. /. float_of_int (List.length appends));
      m "serve.submit_ms" "ms" (sum (List.map (fun j -> j.submit_s) ok) *. 1000. /. nok);
      m "serve.queue_wait_s" "s" (sum (List.map (fun j -> j.queue_wait_s) ok) /. nok);
      m "serve.overhead_s" "s" (sum overhead /. nspec);
      m "serve.workers" "workers" (float_of_int workers);
    ]

let workers_of port =
  let gauges = serve_gauges port in
  Printf.eprintf "[perfbench] daemon: %s\n%!"
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) gauges));
  let workers = Option.value (List.assoc_opt "hb_serve_workers_target" gauges) ~default:0 in
  Util.check (workers = 2) "daemon worker pool is %d, not 2" workers;
  workers

(* The campaign layers on a workload that does not load them: one
   2-injection job of [workload] under extern-4, with an injection seed
   from the workload seed, sent to a daemon of its own and then run
   in-process.  Call it before the process starts any thread. *)
let probe ~seed workload =
  let spec =
    spec_for ~runs:2 ~tenant:"probe" (workload, Encoding.Extern4)
      (Prng.derive_seed (Prng.create ~seed))
  in
  let d = start_daemon 0 in
  let job, workers =
    Fun.protect
      ~finally:(fun () -> stop_daemon d)
      (fun () ->
        let j = run_job ~port:d.port ~group:0 spec in
        (j, workers_of d.port))
  in
  let r = in_process spec in
  (match job.report with
  | Some got ->
    Util.check
      (got = Json.to_string_pretty (Campaign.to_json r.creport) ^ "\n")
      "probe %s: daemon report differs from the in-process campaign" workload
  | None -> Util.check false "probe %s: the daemon job failed" workload);
  campaign_layers ~jobs:[ job ] ~results:[ r ] ~workers

(* Per-layer figures after the traced loop.  [results] are the traced
   loop's in-process campaigns, already run with spans on.  Each
   (program, encoding) of the mix runs once more on a plain machine,
   and each program once under the baseline, for the cpu tallies; the
   replay stream is the first 50,000 dereferences of each program. *)
let layers ~(traced : phase) ~results ~workers ~refs =
  (* compiled again, with spans on *)
  Hashtbl.reset images;
  let slots = List.sort_uniq compare (List.map fst traced.specs) in
  let programs = List.sort_uniq compare (List.map fst slots) in
  let plain mode (workload, scheme) =
    let spec = { (spec_for ~tenant:"layers" (workload, scheme) 0) with Proto.mode } in
    let cname =
      if mode = Codegen.Nochecks then "baseline" else "hb-" ^ Encoding.scheme_name scheme
    in
    let image, globals = image_for spec in
    let m, st, _ = Layers.run ~config:(config_for spec) ~globals image in
    (match (st, Hashtbl.find_opt refs (workload, cname)) with
    | Machine.Exited 0, Some (ri, _) ->
      Util.check
        (ri = m.Machine.stats.Hb_cpu.Stats.instructions)
        "%s/%s: %d instrs, reference %d" workload cname
        m.Machine.stats.Hb_cpu.Stats.instructions ri
    | st, _ -> Util.check false "%s/%s: %s" workload cname (Machine.status_name st));
    (mk_for spec, m.Machine.stats.Hb_cpu.Stats.instructions)
  in
  let hb = List.map (fun slot -> (slot, plain Codegen.Hardbound slot)) slots in
  List.iter (fun w -> ignore (plain Codegen.Nochecks (w, Encoding.Extern4))) programs;
  let cpu = Layers.cpu () in
  let frontend = Layers.frontend () in
  let stream =
    Replay.concat
      (List.map
         (fun w ->
           let _, (mk, _) = List.find (fun ((x, _), _) -> x = w) hb in
           Hardbound.Checker.reset_tally ();
           Replay.capture ~limit:50_000 (mk ()))
         programs)
  in
  let step = Layers.step stream in
  let snapshot = Layers.snapshot (List.map snd hb) in
  cpu @ frontend @ step @ snapshot @ campaign_layers ~jobs:traced.jobs ~results ~workers

let run ~seed ~seconds ~trace =
  let refs = Util.reference () in
  (* set-up: compile the images the in-process runs and the traced
     layers use, then fork the daemon *)
  let daemon, setup_s =
    Util.setup ~times:9 ~discard:stop_daemon
      (let k = ref 0 in
       fun () ->
         Hashtbl.reset images;
         List.iter
           (fun slot ->
             List.iter
               (fun mode ->
                 ignore (image_for { (spec_for ~tenant:"setup" slot 0) with Proto.mode }))
               [ Codegen.Hardbound; Codegen.Nochecks ])
           slots;
         incr k;
         start_daemon !k)
  in
  let live = ref (Some daemon) in
  Fun.protect ~finally:(fun () -> stop_once live) @@ fun () ->
  let port = daemon.port in
  (* the traced loop sends the same specs again, so that traced minus
     untraced figures compare like work *)
  let specs = run_specs ~seed in
  let plain = phase ~seconds ~specs ~port ~refs in
  let traced =
    if trace then begin
      Spans.enabled := true;
      let t = phase ~seconds ~specs ~port ~refs in
      Spans.enabled := false;
      Some t
    end
    else None
  in
  let workers = workers_of port in
  (* the in-process campaigns run alone *)
  stop_once live;
  let plain_refs = references plain in
  (* a shed, poisoned or failed job is already counted by its client *)
  match traced with
  | None ->
    ( (Util.m "setup_s" "s" setup_s :: e2e plain plain_refs) @ [ Util.peak_rss () ],
      plain.attempted,
      plain.failed )
  | Some t ->
    Spans.enabled := true;
    let results = references t in
    let l = layers ~traced:t ~results ~workers ~refs in
    Spans.enabled := false;
    ( l @ Util.trace_overhead ~plain:(e2e plain plain_refs) ~traced:(e2e t results),
      plain.attempted + t.attempted,
      plain.failed + t.failed )
