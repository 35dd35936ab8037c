(* Host-time benchmark: how fast the migration system really runs.

     dune exec hostbench/main.exe -- --workload NAME --seed N --seconds S --trace 0|1

   Workloads (see README.md for why each exists):
     exec-checkpointed  interpreter in fuel slices + incremental durable checkpoints
     migrate-hetero     live migration and durable restart of suspended processes
     fleet-churn        discrete-event cluster churns with an HPMJ journal + report

   Every timed quantity is a short operation (milliseconds), repeated in
   sweeps spread over the run; an operation's cost is its fastest repeat.
   The host this was tuned on switches between a fast and a slow mode on
   a scale of seconds, so medians and one-shot wall times of the same
   operation differ by up to 2x between runs while fastest repeats hold
   within a few percent.

   The last line of standard output is one JSON object:
     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
   with the end-to-end metrics when --trace 0 and the per-layer metrics
   (from spans around each library call) when --trace 1. *)

open Hpm_core
module Arch = Hpm_arch.Arch
module Interp = Hpm_machine.Interp
module Mstats = Hpm_machine.Mstats
module Transport = Hpm_net.Transport
module Store = Hpm_store.Store
module Snapshot = Hpm_store.Snapshot
module Journal = Hpm_store.Journal
module Cluster = Hpm_sched.Cluster
module Policy = Hpm_sched.Policy
module Report = Hpm_query.Report
module Registry = Hpm_workloads.Registry

let now = Span.now
let span = Span.record

(* ------------------------------------------------------------------ *)
(* Scratch files                                                       *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Stores and journals live in a fresh directory under the working
   directory, removed at exit.  Paths inside it have a fixed length, so
   the allocation counts of file operations repeat exactly. *)
let tmp_dir =
  lazy
    (let base = Filename.concat (Sys.getcwd ()) ".hostbench-tmp" in
     (try Sys.mkdir base 0o755 with Sys_error _ -> ());
     let dir = Filename.temp_dir ~temp_dir:base "run" "" in
     at_exit (fun () ->
         rm_rf dir;
         try Sys.rmdir base with Sys_error _ -> ());
     dir)

let tmp fmt = Printf.ksprintf (fun name -> Filename.concat (Lazy.force tmp_dir) name) fmt

(* ------------------------------------------------------------------ *)
(* Jobs, repeats and the fastest-repeat estimator                      *)
(* ------------------------------------------------------------------ *)

(* A job is one case's operation.  Each call of [run] is one repeat: it
   records timed sections with [tick] (a section may occur several times
   in a repeat, e.g. one per fuel slice) and deterministic counts with
   [count].  Sweep 0 is the warm-up: checked, not timed.  From sweep 1
   on, each occurrence keeps its fastest time, and every count must
   equal the one of sweep 1. *)
type job = {
  key : string;
  every : int;  (** runs in sweeps whose index is a multiple of this *)
  reps : int;  (** repeats per sweep *)
  run : int -> unit;
  fast : (string, float array) Hashtbl.t;
  mutable counts : (string * int) list option;
  mutable wall : float;  (** all repeats, untimed parts included *)
  mutable repeats : int;
}

let ticks : (string, float list) Hashtbl.t = Hashtbl.create 8
let cur_counts = ref []
let tick name dt =
  Hashtbl.replace ticks name (dt :: Option.value ~default:[] (Hashtbl.find_opt ticks name))
let count name v = cur_counts := (name, v) :: !cur_counts
let words () = int_of_float (Gc.minor_words ())

let attempted = ref 0
let failed = ref 0

let fail fmt = Printf.ksprintf failwith fmt

let report_failure what msg =
  incr failed;
  if !failed <= 20 then Printf.eprintf "hostbench: FAILED %s: %s\n%!" what msg

(* Run one checked, untimed operation outside the sweeps. *)
let checked what f =
  incr attempted;
  match f () with
  | () -> ()
  | exception e -> report_failure what (Printexc.to_string e)

(* op id -> (job key, sweep) of every repeat, for the span summary *)
let ops : (string * int) array ref = ref [||]
let n_ops = ref 0

let new_op key sweep =
  if !n_ops = Array.length !ops then begin
    let bigger = Array.make (max 1024 (2 * !n_ops)) ("", 0) in
    Array.blit !ops 0 bigger 0 !n_ops;
    ops := bigger
  end;
  !ops.(!n_ops) <- (key, sweep);
  Span.current_op := !n_ops;
  incr n_ops

let merge job =
  Hashtbl.iter
    (fun name rev ->
      let a = Array.of_list (List.rev rev) in
      match Hashtbl.find_opt job.fast name with
      | None -> Hashtbl.replace job.fast name a
      | Some b ->
          if Array.length a <> Array.length b then
            fail "%s: %d occurrences of %s, expected %d" job.key (Array.length a) name
              (Array.length b);
          Array.iteri (fun i t -> if t < b.(i) then b.(i) <- t) a)
    ticks;
  let c = List.sort compare !cur_counts in
  match job.counts with
  | None -> job.counts <- Some c
  | Some ref_c ->
      if c <> ref_c then begin
        let show l = String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l) in
        fail "%s: counts changed between repeats: [%s] vs [%s]" job.key (show c) (show ref_c)
      end

let run_job job sweep =
  Hashtbl.reset ticks;
  cur_counts := [];
  new_op job.key sweep;
  incr attempted;
  let t0 = now () in
  (match
     job.run sweep;
     if sweep > 0 then merge job
   with
  | () -> ()
  | exception e ->
      report_failure (Printf.sprintf "%s (sweep %d)" job.key sweep) (Printexc.to_string e));
  job.wall <- job.wall +. (now () -. t0);
  job.repeats <- job.repeats + 1

let job ?(every = 1) ?(reps = 1) key run =
  { key; every; reps; run; fast = Hashtbl.create 4; counts = None; wall = 0.0; repeats = 0 }

let fastest job section =
  match Hashtbl.find_opt job.fast section with
  | Some a -> Array.fold_left ( +. ) 0.0 a
  | None -> nan

let counted job name =
  match job.counts with
  | Some c -> Option.value ~default:0 (List.assoc_opt name c)
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Shared steps                                                        *)
(* ------------------------------------------------------------------ *)

(* [Migration.prepare], or in the traced run the same steps in the same
   order with a span around each. *)
let prepare source =
  if not !Span.on then Migration.prepare source
  else
    let open Hpm_ir in
    let ast =
      span "lang.parse" (fun () ->
          Hpm_lang.Scopes.normalize (Hpm_lang.Parser.parse_string source))
    in
    let ast = span "lang.typecheck" (fun () -> Hpm_lang.Typecheck.check_program ast) in
    let diags = span "ir.lint" (fun () -> Unsafe.check_exn ast) in
    let prog, user_polls = span "ir.lower" (fun () -> Compile.lower ast) in
    let polls =
      span "ir.pollpoint" (fun () -> Pollpoint.insert prog user_polls Pollpoint.default_strategy)
    in
    let diags = span "ir.lint" (fun () -> diags @ Diag.reject_on_errors (Lint.check_ir prog)) in
    let ti = span "msr.ti_build" (fun () -> Hpm_msr.Ti.build prog) in
    { Migration.source; ast; prog; polls; ti; diags }

let check_same_program (m : Migration.migratable) =
  if !Span.on then
    let lib = Migration.prepare m.Migration.source in
    if Stream.prog_hash lib.Migration.prog <> Stream.prog_hash m.Migration.prog then
      fail "step-by-step preparation differs from Migration.prepare"

(* Machine counters of one interpreter run, plus the minor words it
   allocated. *)
let count_machine p words =
  let s = Interp.stats p in
  count "machine.instrs" s.Mstats.instrs;
  count "machine.polls" s.Mstats.polls;
  count "machine.searches" s.Mstats.searches;
  count "machine.allocs" s.Mstats.allocs;
  count "machine.words" words

let width_compatible (a : Arch.t) (b : Arch.t) =
  a.Arch.long_size = b.Arch.long_size && a.Arch.ptr_size = b.Arch.ptr_size

(* Outputs agree across the pair: none of the catalog machines used here
   rounds doubles, so only [long] width can change what a program prints. *)
let exec_equivalent (w : Registry.t) a b = w.Registry.wide_safe || width_compatible a b

let contains s sub =
  let n = String.length sub in
  let rec scan i = i + n <= String.length s && (String.sub s i n = sub || scan (i + 1)) in
  scan 0

(* A program whose source prints a PASS line must print it. *)
let check_pass (m : Migration.migratable) out =
  if contains m.Migration.source "PASS" && not (contains out "PASS") then
    fail "no PASS line in the output"

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let shuffle rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l |> List.sort compare |> List.map snd

let jitter rng n pct =
  let d = n * pct / 100 in
  if d = 0 then n else n - d + Random.State.int rng ((2 * d) + 1)

(* ------------------------------------------------------------------ *)
(* exec-checkpointed                                                   *)
(* ------------------------------------------------------------------ *)

let slice_fuel = 10_000

type exec_case = {
  e_w : Registry.t;
  e_n : int;
  e_run : Arch.t;
  e_ref : Arch.t;  (** arch of the unmigrated reference run *)
  e_restarts : Arch.t list;  (** candidate restart archs, in seeded order *)
  e_k : int;  (** polls between checkpoints *)
  mutable e_m : Migration.migratable option;
  mutable e_reference : string;
  mutable e_store : Store.t option;  (** its newest checkpoint is restarted *)
  mutable e_out_len : int;  (** output length at the last checkpoint *)
}

let exec_pool = Arch.[ dec5000; sparc20; ultra5; x86_64; i386; riscv64_le_lp64 ]

let exec_case ~n ~k ~run ~ref_arch ~restarts name =
  {
    e_w = Registry.find_exn name;
    e_n = n;
    e_run = run;
    e_ref = ref_arch;
    e_restarts = restarts;
    e_k = k;
    e_m = None;
    e_reference = "";
    e_store = None;
    e_out_len = 0;
  }

(* The seven corpus programs, each sized to 0.05-0.3 s of interpretation,
   on seeded architectures with a seeded checkpoint interval. *)
let exec_cases rng =
  List.map
    (fun (name, n, pct) ->
      let w = Registry.find_exn name in
      let run = pick rng exec_pool in
      let others = List.filter (fun b -> b != run && exec_equivalent w run b) exec_pool in
      exec_case name ~n:(jitter rng n pct) ~k:(2000 + Random.State.int rng 2001) ~run
        ~ref_arch:(pick rng others) ~restarts:(shuffle rng others))
    [
      ("qsort", 1000, 3);
      ("jacobi", 5, 0);
      ("nqueens", 7, 0);
      ("linpack", 50, 4);
      ("hashtab", 4000, 3);
      ("bitonic", 1000, 3);
      ("listops", 3000, 3);
    ]

let exec_probe () =
  exec_case "nqueens" ~n:6 ~k:1000 ~run:Arch.dec5000 ~ref_arch:Arch.sparc20
    ~restarts:[ Arch.x86_64 ]

let exec_setup_job i (c : exec_case) =
  let source = c.e_w.Registry.source c.e_n in
  job (Printf.sprintf "exec-setup/%d/%s" i c.e_w.Registry.name) (fun sweep ->
      let t0 = now () in
      let m = prepare source in
      span "ir.compat" (fun () ->
          ignore (Compat.matrix (Compat.create m.Migration.prog m.Migration.polls) Arch.all));
      tick "setup" (now () -. t0);
      if sweep = 0 then begin
        check_same_program m;
        c.e_m <- Some m;
        let out, _, _ = Migration.run_plain m c.e_ref in
        c.e_reference <- out
      end)

(* One repeat: run the program to completion in fuel slices on a fresh
   process, checkpointing every [e_k] polls.  All repeats checkpoint into
   one store, which the warm-up filled: a timed checkpoint serializes and
   hashes the process but finds every chunk stored, as a re-run of the
   same job does, and writes only its manifest.  Creating thousands of
   chunk files per repeat made the timings follow the disk, not the code
   (see README.md). *)
let exec_job ~reps i (c : exec_case) =
  job ~reps (Printf.sprintf "exec/%d/%s" i c.e_w.Registry.name) (fun _sweep ->
      let m = Option.get c.e_m in
      if c.e_store = None then c.e_store <- Some (Store.open_store (tmp "x%02d" i));
      let st = Option.get c.e_store in
      let cache = Snapshot.new_cache () in
      let p = Migration.start m c.e_run in
      Interp.request_migration_after p c.e_k;
      let w = ref 0 and epoch = ref 0 and out_len = ref 0 in
      let shipped = ref 0 and reused = ref 0 and written = ref 0 in
      let rec loop () =
        let w0 = words () in
        let t0 = now () in
        let r = span "machine.run" (fun () -> Interp.run ~fuel:slice_fuel p) in
        tick "slice" (now () -. t0);
        w := !w + (words () - w0);
        match r with
        | Interp.RFuel -> loop ()
        | Interp.RPolled _ ->
            incr epoch;
            let t0 = now () in
            let mf, chunks, d =
              span "store.snapshot" (fun () ->
                  Snapshot.collect ~epoch:!epoch ~proc:"p" ~cache p m.Migration.ti)
            in
            span "store.persist" (fun () -> Snapshot.persist st mf chunks d);
            tick "ckpt" (now () -. t0);
            shipped := !shipped + d.Cstats.d_chunks_shipped;
            reused := !reused + d.Cstats.d_chunks_reused;
            written := !written + d.Cstats.d_delta_bytes;
            out_len := String.length (Interp.output p);
            Interp.request_migration_after p c.e_k;
            loop ()
        | Interp.RDone _ -> ()
      in
      loop ();
      let out = Interp.output p in
      if not (String.equal out c.e_reference) then
        fail "output differs from the unmigrated run on %s" c.e_ref.Arch.name;
      check_pass m out;
      if !epoch = 0 then fail "no checkpoint taken";
      count_machine p !w;
      count "store.checkpoints" !epoch;
      count "store.chunks_shipped" !shipped;
      count "store.chunks_reused" !reused;
      count "store.bytes_written" !written;
      c.e_out_len <- !out_len)

(* The newest checkpoint restarts on another machine and finishes with
   the rest of the reference output. *)
let exec_restart_check (c : exec_case) () =
  let m = Option.get c.e_m in
  let compat = Compat.create m.Migration.prog m.Migration.polls in
  let dst =
    match
      List.find_opt
        (fun b -> Compat.verdict compat ~src:c.e_run ~dst:b = Hpm_ir.Portability.Legal)
        c.e_restarts
    with
    | Some b -> b
    | None -> fail "no legal restart machine for %s" c.e_w.Registry.name
  in
  match Snapshot.restore_latest m dst (Option.get c.e_store) ~proc:"p" with
  | None -> fail "%s: no checkpoint restores" c.e_w.Registry.name
  | Some (q, _, _) ->
      ignore (Interp.run_to_completion q);
      let r = c.e_reference in
      let rest = String.sub r c.e_out_len (String.length r - c.e_out_len) in
      if not (String.equal (Interp.output q) rest) then
        fail "%s: restart on %s printed %S, expected %S" c.e_w.Registry.name dst.Arch.name
          (Interp.output q) rest

(* ------------------------------------------------------------------ *)
(* migrate-hetero                                                      *)
(* ------------------------------------------------------------------ *)

type mig_case = {
  m_w : Registry.t;
  m_n : int;
  m_after : int;  (** suspend at this poll event *)
  m_src : Arch.t;
  m_dst : Arch.t;
  mutable m_m : Migration.migratable option;
  mutable m_p : Interp.t option;  (** suspended source process *)
  mutable m_stream : string;  (** its collected stream *)
  m_channel : Hpm_net.Netsim.t;
  m_cache : Snapshot.cache;
  mutable m_store : Store.t option;
  mutable m_epoch : int;  (** of the newest restart checkpoint *)
  mutable m_migrated : Interp.t option;  (** newest live-migrated process *)
  mutable m_restarted : Interp.t option;  (** newest restarted process *)
}

let mig_case ~n ~after ~src ~dst name =
  {
    m_w = Registry.find_exn name;
    m_n = n;
    m_after = after;
    m_src = src;
    m_dst = dst;
    m_m = None;
    m_p = None;
    m_stream = "";
    m_channel = Hpm_net.Netsim.loopback ();
    m_cache = Snapshot.new_cache ();
    m_store = None;
    m_epoch = -1;
    m_migrated = None;
    m_restarted = None;
  }

(* Program shape x arch pair: many small heap blocks (bitonic), a few
   large arrays (linpack), pointer-rich mid-sized heaps (qsort, hashtab),
   sharing and cycles (test_pointer); endianness, ILP32->LP64 and
   alignment changes. *)
let mig_cases rng =
  List.concat_map
    (fun (name, n, lo, hi) ->
      List.map
        (fun (src, dst) -> mig_case name ~n ~after:(lo + Random.State.int rng (hi - lo + 1)) ~src ~dst)
        Arch.[ (dec5000, sparc20); (ultra5, x86_64); (x86_64, i386) ])
    [
      ("bitonic", 1500, 8000, 8100);
      ("linpack", 60, 3000, 3100);
      ("qsort", 2000, 9850, 10250);
      ("hashtab", 3000, 20000, 20200);
      ("test_pointer", 0, 50, 60);
    ]

let mig_probe () = mig_case "hashtab" ~n:2000 ~after:10000 ~src:Arch.dec5000 ~dst:Arch.sparc20

let mig_name (c : mig_case) =
  Printf.sprintf "%s/%s-%s" c.m_w.Registry.name c.m_src.Arch.name c.m_dst.Arch.name

let mig_setup_job i (c : mig_case) =
  let source = c.m_w.Registry.source c.m_n in
  job ~every:4 (Printf.sprintf "mig-setup/%d/%s" i (mig_name c)) (fun sweep ->
      let t0 = now () in
      let m = prepare source in
      let p = Migration.start m c.m_src in
      Interp.request_migration_after p c.m_after;
      let w0 = words () in
      let r = span "machine.run" (fun () -> Interp.run p) in
      let w = words () - w0 in
      tick "setup" (now () -. t0);
      (match r with
      | Interp.RPolled _ -> ()
      | _ -> fail "finished before poll event %d" c.m_after);
      count_machine p w;
      if sweep = 0 then begin
        check_same_program m;
        c.m_m <- Some m;
        c.m_p <- Some p;
        c.m_store <- Some (Store.open_store (tmp "m%02d" i))
      end)

(* Live migration: the stop-and-copy downtime. *)
let freeze_job ~reps i (c : mig_case) =
  job ~reps (Printf.sprintf "freeze/%d/%s" i (mig_name c)) (fun sweep ->
      let m = Option.get c.m_m and p = Option.get c.m_p in
      let ti = m.Migration.ti in
      let t0 = now () in
      let w0 = words () in
      let data, cs = span "core.collect" (fun () -> Collect.collect p ti) in
      let w1 = words () in
      let delivered, ts =
        match span "net.transfer" (fun () -> Transport.transfer c.m_channel data) with
        | Transport.Delivered (d, ts) -> (d, ts)
        | Transport.Aborted { reason; _ } -> fail "loopback transfer aborted: %s" reason
      in
      let w2 = words () in
      let dst, rs =
        span "core.restore" (fun () -> Restore.restore m.Migration.prog c.m_dst ti delivered)
      in
      let w3 = words () in
      let vr = span "core.verify" (fun () -> Verify.check dst ti) in
      tick "freeze" (now () -. t0);
      if sweep = 0 then c.m_stream <- data
      else if not (String.equal data c.m_stream) then fail "collected stream changed";
      count "core.collect_searches" cs.Cstats.c_searches;
      count "core.collect_blocks" cs.Cstats.c_blocks;
      count "core.stream_bytes" cs.Cstats.c_stream_bytes;
      count "core.collect_words" (w1 - w0);
      count "net.frames" ts.Transport.t_sent;
      count "net.retries" ts.Transport.t_retries;
      count "core.restore_updates" rs.Cstats.r_updates;
      count "core.restore_words" (w3 - w2);
      count "core.verify_edges" vr.Verify.v_edges;
      c.m_migrated <- Some dst)

(* Durable restart: an incremental checkpoint of the suspended process
   into the on-disk store, read back and restored on the destination.
   The first epoch writes every chunk; later epochs find them all stored. *)
let restart_job ~reps i (c : mig_case) =
  job ~reps (Printf.sprintf "restart/%d/%s" i (mig_name c)) (fun _sweep ->
      let m = Option.get c.m_m and p = Option.get c.m_p and st = Option.get c.m_store in
      c.m_epoch <- c.m_epoch + 1;
      let ti = m.Migration.ti and epoch = c.m_epoch in
      let t0 = now () in
      let mf, chunks, d =
        span "store.snapshot" (fun () -> Snapshot.collect ~epoch ~proc:"p" ~cache:c.m_cache p ti)
      in
      span "store.persist" (fun () -> Snapshot.persist st mf chunks d);
      let mf = span "store.load" (fun () -> Store.load_manifest st ~proc:"p" ~epoch) in
      let stream =
        span "store.materialize" (fun () ->
            Snapshot.materialize ~ti ~lookup:(Store.get_chunk st) mf)
      in
      let dst, _ =
        span "core.restore" (fun () ->
            Restore.restore ~expect_epoch:epoch m.Migration.prog c.m_dst ti stream)
      in
      ignore (span "core.verify" (fun () -> Verify.check dst ti) : Verify.report);
      tick "restart" (now () -. t0);
      (* the store's image rebuilds the live-migration stream byte for byte;
         later epochs differ from it only in the header's epoch field *)
      if epoch = 0 && not (String.equal stream c.m_stream) then
        fail "materialized stream differs from the collected one";
      if String.length stream <> String.length c.m_stream then fail "materialized stream size changed";
      count "store.chunks_shipped" d.Cstats.d_chunks_shipped;
      count "store.chunks_reused" d.Cstats.d_chunks_reused;
      count "store.bytes_written" d.Cstats.d_delta_bytes;
      count "store.cache_hits" d.Cstats.d_cache_hits;
      ignore (Store.retain st ~proc:"p" ~keep:1 : int);
      c.m_restarted <- Some dst)

(* Both the migrated and the restarted process finish with the reference
   output: an unmigrated run where the pair executes identically, else
   the library's own end-to-end migration at the same poll event. *)
let mig_finish_check (c : mig_case) () =
  let m = Option.get c.m_m and p = Option.get c.m_p in
  let reference =
    if exec_equivalent c.m_w c.m_src c.m_dst then
      let out, _, _ = Migration.run_plain m c.m_src in
      out
    else
      (Migration.run_migrating m ~src_arch:c.m_src ~dst_arch:c.m_dst ~after_polls:c.m_after ())
        .Migration.output
  in
  List.iter
    (fun (what, q) ->
      let q = Option.get q in
      ignore (Interp.run_to_completion q);
      let out = Interp.output p ^ Interp.output q in
      if not (String.equal out reference) then fail "%s process output differs" what;
      check_pass m out)
    [ ("migrated", c.m_migrated); ("restarted", c.m_restarted) ]

(* ------------------------------------------------------------------ *)
(* fleet-churn                                                         *)
(* ------------------------------------------------------------------ *)

type churn_case = {
  c_cfg : Cluster.config;
  mutable c_events_digest : string;  (** event log of the warm-up run *)
  mutable c_rounds : int;
}

let churn_case ~nodes ~seed =
  {
    c_cfg =
      {
        Cluster.default_churn with
        c_nodes = nodes;
        c_procs = 10 * nodes;
        c_seed = seed;
        c_gang_groups = max 1 (nodes / 25);
        c_crash_nodes = max 1 (nodes / 50);
      };
    c_events_digest = "";
    c_rounds = 0;
  }

(* The seed drives each churn's own generator: work, state sizes and
   crash plan.  Fleet sizes stay fixed, so that [report_ms], a time that
   grows with the journal, does not follow the seed. *)
let churn_cases rng =
  List.map (fun nodes -> churn_case ~nodes ~seed:(Random.State.bits rng)) [ 20; 35; 55; 80 ]

let churn_probe () = churn_case ~nodes:20 ~seed:7

(* The library's default policy composition with a span and a round
   counter around [decide]. *)
let timed_policy (c : churn_case) : Policy.t =
  let module P =
    (val Policy.with_hysteresis ~cooldown_s:c.c_cfg.Cluster.c_cooldown_s
           (Policy.gang (Policy.least_loaded ~max_moves:c.c_cfg.Cluster.c_max_moves ())))
  in
  (module struct
    let name = P.name

    let decide ~now nodes procs =
      c.c_rounds <- c.c_rounds + 1;
      span "sched.policy" (fun () -> P.decide ~now nodes procs)
  end)

let churn_job ~reps i (c : churn_case) =
  job ~reps (Printf.sprintf "churn/%d/%d-nodes" i c.c_cfg.Cluster.c_nodes) (fun sweep ->
      let path = tmp "c%02d-%06d.hpmj" i sweep in
      (* the warm-up runs the library default, so the traced repeats
         prove the wrapped policy leaves the event log unchanged *)
      let policy = if !Span.on && sweep > 0 then Some (timed_policy c) else None in
      c.c_rounds <- 0;
      let t0 = now () in
      let j = span "journal.open" (fun () -> Journal.open_journal path) in
      let cl = span "sched.create" (fun () -> Cluster.create ~journal:j ?policy c.c_cfg) in
      let t1 = now () in
      tick "create" (t1 -. t0);
      let w0 = words () in
      ignore (span "sched.run" (fun () -> Cluster.run cl) : Cluster.t);
      let t2 = now () in
      let w = words () - w0 in
      tick "run" (t2 -. t1);
      Journal.close j;
      let t3 = now () in
      let src = span "journal.load" (fun () -> Report.of_paths ~journal:path ()) in
      let rows = span "query.report" (fun () -> Report.top_churn src) in
      tick "report" (now () -. t3);
      let s = Cluster.stats cl in
      if s.Cluster.cs_finished <> s.Cluster.cs_spawned then
        fail "finished %d of %d processes" s.Cluster.cs_finished s.Cluster.cs_spawned;
      let finished = Hashtbl.create 1024 in
      List.iter
        (fun (e : Journal.entry) ->
          if e.Journal.j_ev = Journal.Finished then begin
            if Hashtbl.mem finished e.Journal.j_proc then
              fail "%s finished twice in the journal" e.Journal.j_proc;
            Hashtbl.replace finished e.Journal.j_proc ()
          end)
        (Option.get src.Report.s_journal);
      if Hashtbl.length finished <> s.Cluster.cs_spawned then
        fail "journal records %d of %d processes finished" (Hashtbl.length finished)
          s.Cluster.cs_spawned;
      let digest = Digest.string (String.concat "\n" (Cluster.events cl)) in
      if c.c_events_digest = "" then c.c_events_digest <- digest
      else if digest <> c.c_events_digest then fail "event log differs from the warm-up run";
      count "sched.events" s.Cluster.cs_events;
      count "sched.migrations" s.Cluster.cs_migrations;
      count "sched.requested" s.Cluster.cs_requested;
      count "sched.policy_rounds" c.c_rounds;
      count "sched.words" w;
      count "journal.bytes" s.Cluster.cs_journal_bytes;
      count "journal.rotations" (Journal.rotations j);
      count "query.rows" (Hpm_query.Rel.cardinality rows);
      List.iter rm_rf (path :: Journal.segments j))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* Each workload also runs one small fixed probe case of each other
   workload, so that every run reports every end-to-end metric.  A probe
   is one short operation, so it repeats [probe_reps] times per sweep to
   get as many repeats as a main case gets from its spread. *)
type plan = {
  execs : exec_case list;
  migs : mig_case list;
  churns : churn_case list;
  exec_reps : int;
  mig_reps : int;
  churn_reps : int;
}

let probe_reps = 3

let plan workload seed =
  let rng = Random.State.make [| seed |] in
  let probes =
    {
      execs = [ exec_probe () ];
      migs = [ mig_probe () ];
      churns = [ churn_probe () ];
      exec_reps = probe_reps;
      mig_reps = probe_reps;
      churn_reps = probe_reps;
    }
  in
  match workload with
  | "exec-checkpointed" -> Some { probes with execs = exec_cases rng; exec_reps = 1 }
  | "migrate-hetero" -> Some { probes with migs = mig_cases rng; mig_reps = 1 }
  | "fleet-churn" -> Some { probes with churns = churn_cases rng; churn_reps = 1 }
  | _ -> None

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let mean f l = sum f l /. float_of_int (List.length l)
let total_count name jobs = List.fold_left (fun acc j -> acc + counted j name) 0 jobs
let ratio a b = if b = 0.0 then 0.0 else a /. b

type metric = string * string * float

let end_to_end ~setup ~exec ~freeze ~restart ~churn : metric list =
  let instrs = float_of_int (total_count "machine.instrs" exec) in
  let exec_s = sum (fun j -> fastest j "slice" +. fastest j "ckpt") exec in
  let freezes = List.map (fun j -> fastest j "freeze" *. 1e3) freeze in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  [
    ("setup_s", "s", sum (fun j -> fastest j "setup") setup +. sum (fun j -> fastest j "create") churn);
    ("peak_heap_mb", "MB", float_of_int heap /. 1e6);
    ("minstr_per_s", "Minstr/s", instrs /. exec_s /. 1e6);
    ("freeze_ms", "ms", mean Fun.id freezes);
    ("freeze_max_ms", "ms", List.fold_left Float.max 0.0 freezes);
    ("restart_ms", "ms", mean (fun j -> fastest j "restart" *. 1e3) restart);
    ( "events_per_s",
      "1/s",
      float_of_int (total_count "sched.events" churn) /. sum (fun j -> fastest j "run") churn );
    ("report_ms", "ms", mean (fun j -> fastest j "report" *. 1e3) churn);
  ]

(* Layer times are fastest self times (fastest durations for the [_s]
   totals that include child spans), summed over the occurrences in one
   repeat; an [_ms] metric is the mean over the jobs that call the layer,
   an [_s] metric the total over one pass. *)
let per_layer ~all ~spans_per_pass ~span_ns ~pass_s : metric list =
  let summary =
    Span.summarize ~job_of:(fun op ->
        let key, sweep = !ops.(op) in
        if sweep > 0 then Some key else None)
  in
  let get name = Hashtbl.find_opt summary name in
  let self_ms name =
    match get name with Some f -> f.Span.self *. 1e3 /. float_of_int f.Span.jobs | None -> 0.0
  in
  let total_s name = match get name with Some f -> f.Span.total | None -> 0.0 in
  let self_s name = match get name with Some f -> f.Span.self | None -> 0.0 in
  let c name = float_of_int (total_count name all) in
  let ms name = (name ^ "_ms", "ms", self_ms name) in
  let n name = (name, "count", c name) in
  [
    ms "lang.parse";
    ms "lang.typecheck";
    ms "ir.lower";
    ms "ir.pollpoint";
    ms "ir.lint";
    ms "ir.compat";
    ms "msr.ti_build";
    ("machine.run_s", "s", total_s "machine.run");
    n "machine.instrs";
    n "machine.polls";
    n "machine.searches";
    n "machine.allocs";
    ("machine.words_per_instr", "words/instr", ratio (c "machine.words") (c "machine.instrs"));
    ms "core.collect";
    n "core.collect_searches";
    n "core.collect_blocks";
    ("core.stream_bytes", "bytes", c "core.stream_bytes");
    ("core.collect_words", "words", c "core.collect_words");
    ms "net.transfer";
    n "net.frames";
    n "net.retries";
    ms "core.restore";
    n "core.restore_updates";
    ("core.restore_words", "words", c "core.restore_words");
    ms "core.verify";
    n "core.verify_edges";
    ms "store.snapshot";
    ms "store.persist";
    n "store.chunks_shipped";
    n "store.chunks_reused";
    ( "store.dedup_ratio",
      "ratio",
      ratio (c "store.chunks_reused") (c "store.chunks_reused" +. c "store.chunks_shipped") );
    ("store.bytes_written", "bytes", c "store.bytes_written");
    ms "store.load";
    ms "store.materialize";
    ms "sched.create";
    ("sched.run_s", "s", total_s "sched.run");
    ms "sched.policy";
    ("sched.engine_self_s", "s", self_s "sched.run");
    n "sched.events";
    n "sched.policy_rounds";
    ("sched.commit_ratio", "ratio", ratio (c "sched.migrations") (c "sched.requested"));
    ("journal.bytes", "bytes", c "journal.bytes");
    n "journal.rotations";
    ms "journal.load";
    ms "query.report";
    n "query.rows";
    ("trace.spans_per_pass", "count", spans_per_pass);
    ("trace.span_ns", "ns", span_ns);
    ("trace.overhead_pct", "%", 100.0 *. spans_per_pass *. span_ns *. 1e-9 /. pass_s);
  ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "exec-checkpointed | migrate-hetero | fleet-churn");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "length of the measured pass");
      ("--trace", Arg.Set_int trace, "1 = traced run reporting per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let p =
    match plan !workload !seed with
    | Some p when !seed >= 0 && !seconds > 0 && (!trace = 0 || !trace = 1) -> p
    | _ ->
        prerr_endline usage;
        exit 2
  in
  Span.on := !trace = 1;
  let setup =
    List.mapi exec_setup_job p.execs @ List.mapi mig_setup_job p.migs
  in
  let exec = List.mapi (exec_job ~reps:p.exec_reps) p.execs in
  let freeze = List.mapi (freeze_job ~reps:p.mig_reps) p.migs in
  let restart = List.mapi (restart_job ~reps:p.mig_reps) p.migs in
  let churn = List.mapi (churn_job ~reps:p.churn_reps) p.churns in
  let all = setup @ exec @ freeze @ restart @ churn in
  let every = List.fold_left (fun acc j -> max acc j.every) 1 all in
  (* each sweep starts from a settled heap, so a repeat's collection debt
     does not depend on what the previous sweep left behind *)
  let sweep s =
    Gc.full_major ();
    List.iter
      (fun j ->
        if s mod j.every = 0 then
          for _ = 1 to j.reps do
            run_job j s
          done)
      all
  in
  sweep 0;
  let spans_before = !Span.count in
  let t_start = now () in
  let deadline = t_start +. float_of_int !seconds in
  let s = ref 1 in
  while !s <= 2 * every || now () < deadline do
    sweep !s;
    incr s
  done;
  let pass_s = now () -. t_start and sweeps = !s - 1 in
  List.iter (fun c -> checked ("restart " ^ c.e_w.Registry.name) (exec_restart_check c)) p.execs;
  List.iter (fun c -> checked ("finish " ^ mig_name c) (mig_finish_check c)) p.migs;
  Printf.printf "hostbench %s seed %d: %d sweeps in %.1f s, %d operations, %d failed\n"
    !workload !seed sweeps pass_s !attempted !failed;
  List.iter
    (fun j ->
      Printf.printf "  %-40s %3d x %8.3fms  %s\n" j.key j.repeats
        (j.wall *. 1e3 /. float_of_int j.repeats)
        (String.concat " "
           (Hashtbl.fold (fun k _ acc -> Printf.sprintf "%s=%.3fms" k (fastest j k *. 1e3) :: acc) j.fast [])))
    all;
  let metrics =
    if !trace = 0 then end_to_end ~setup ~exec ~freeze ~restart ~churn
    else
      let spans = float_of_int (!Span.count - spans_before) in
      let span_ns = Span.calibrate () in
      per_layer ~all ~spans_per_pass:(spans /. float_of_int sweeps) ~span_ns
        ~pass_s:(pass_s /. float_of_int sweeps)
  in
  List.iter (fun (n, u, v) -> Printf.printf "  %-28s %14.6g %s\n" n v u) metrics;
  print_result metrics
