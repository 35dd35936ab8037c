(* In-memory span recorder for the traced run.

   A span is one call into a library layer, recorded by the benchmark
   around that call: name, start, end, the enclosing span, and the
   operation (one repeat of one job) it belongs to.  Spans stay in memory
   until the run ends.  With tracing off, [record] only calls its
   function, so the measuring run pays one branch per call. *)

let now = Unix.gettimeofday
let on = ref false

type t = {
  name : string;
  op : int;
  parent : int;  (** index of the enclosing span; -1 at the top *)
  start : float;
  mutable stop : float;
}

let dummy = { name = ""; op = -1; parent = -1; start = 0.0; stop = 0.0 }
let spans = ref (Array.make 4096 dummy)
let count = ref 0
let open_spans = ref []
let current_op = ref (-1)

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (2 * !count) dummy in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let record name f =
  if not !on then f ()
  else begin
    let parent = match !open_spans with i :: _ -> i | [] -> -1 in
    let i = push { name; op = !current_op; parent; start = now (); stop = nan } in
    open_spans := i :: !open_spans;
    let close () =
      !spans.(i).stop <- now ();
      open_spans := List.tl !open_spans
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

(* Per-occurrence fastest times.  Operations are deterministic, so the
   k-th span named [name] in every repeat of a job is the same piece of
   work; each such occurrence keeps its fastest duration and its fastest
   self time (duration minus the time its child spans cover). *)
type fastest = { total : float; self : float; jobs : int }

(** [summarize ~job_of] folds the recorded spans of timed repeats into,
    per span name, the sum over (job, occurrence) of the fastest
    duration and of the fastest self time, and the number of distinct
    jobs that called it.  [job_of op] names the job of an operation, or
    [None] for an untimed (warm-up) repeat. *)
let summarize ~(job_of : int -> string option) : (string, fastest) Hashtbl.t =
  let n = !count and a = !spans in
  let child = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = a.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.stop -. s.start)
  done;
  let occ = Hashtbl.create 1024 and best = Hashtbl.create 1024 in
  for i = 0 to n - 1 do
    let s = a.(i) in
    match job_of s.op with
    | None -> ()
    | Some job ->
        let k = Option.value ~default:0 (Hashtbl.find_opt occ (s.op, s.name)) in
        Hashtbl.replace occ (s.op, s.name) (k + 1);
        let dur = s.stop -. s.start in
        let self = dur -. child.(i) in
        let key = (job, s.name, k) in
        let d, sf =
          match Hashtbl.find_opt best key with
          | Some (d, sf) -> (Float.min d dur, Float.min sf self)
          | None -> (dur, self)
        in
        Hashtbl.replace best key (d, sf)
  done;
  let jobs = Hashtbl.create 64 and out = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (job, name, _) (d, sf) ->
      Hashtbl.replace jobs (name, job) ();
      let f =
        Option.value ~default:{ total = 0.0; self = 0.0; jobs = 0 } (Hashtbl.find_opt out name)
      in
      Hashtbl.replace out name { f with total = f.total +. d; self = f.self +. sf })
    best;
  Hashtbl.iter
    (fun (name, _) () ->
      let f = Hashtbl.find out name in
      Hashtbl.replace out name { f with jobs = f.jobs + 1 })
    jobs;
  out

(** Fastest cost of recording one empty span, in nanoseconds. *)
let calibrate () =
  let saved = !count in
  let batch = 20_000 in
  let best = ref infinity in
  for _ = 1 to 5 do
    count := saved;
    let t0 = now () in
    for _ = 1 to batch do
      record "calibrate" ignore
    done;
    best := Float.min !best ((now () -. t0) /. float_of_int batch)
  done;
  count := saved;
  !best *. 1e9
