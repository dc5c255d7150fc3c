(* Open-loop workload generation.

   The defining property: the arrival schedule is fixed *before* the
   system's behaviour is seen.  Each client thread computes intended
   arrival times from the configured rate (Poisson or fixed spacing),
   sleeps until each intended instant, issues the operation — and if
   the system has fallen behind, issues it anyway, immediately.  A
   closed-loop driver would wait for the previous response first,
   silently stretching the schedule whenever the server stalls; that
   is coordinated omission, and it hides exactly the tail this
   harness exists to measure.  Latency is therefore measured from the
   *intended* arrival time to completion, so time an operation spends
   queued behind a stall counts against the system, not the client.

   The generator is deliberately ignorant of what it drives: [exec]
   is any closure (an RPC stub, an in-process engine, a fake for
   tests), so the same schedule/mix machinery serves benchmarks and
   unit tests alike. *)

module Rng = Sdb_util.Rng
module Histogram = Sdb_util.Histogram

type op =
  | Read of int
  | Write of int * string

type schedule =
  | Poisson
  | Fixed_spacing

type value_size =
  | Fixed of int
  | Between of int * int

type config = {
  rate : float;
  duration_s : float;
  threads : int;
  keys : int;
  theta : float;
  read_fraction : float;
  value_size : value_size;
  schedule : schedule;
  seed : int;
}

let default =
  {
    rate = 1000.0;
    duration_s = 1.0;
    threads = 4;
    keys = 1000;
    theta = 0.9;
    read_fraction = 0.5;
    value_size = Fixed 64;
    schedule = Poisson;
    seed = 1;
  }

(* The paper's observed traffic shape: "the rate of updates is very
   low" — enquiries dominate.  This is the mix that exercises a read
   path (lock-free or Shared-lock) rather than the commit pipeline. *)
let read_mostly = { default with read_fraction = 0.99 }

let validate cfg =
  if cfg.rate <= 0.0 then invalid_arg "Loadgen: rate must be positive";
  if cfg.duration_s <= 0.0 then invalid_arg "Loadgen: duration_s must be positive";
  if cfg.threads <= 0 then invalid_arg "Loadgen: threads must be positive";
  if cfg.keys <= 0 then invalid_arg "Loadgen: keys must be positive";
  if cfg.read_fraction < 0.0 || cfg.read_fraction > 1.0 then
    invalid_arg "Loadgen: read_fraction must be in [0,1]";
  (match cfg.value_size with
  | Fixed n when n < 0 -> invalid_arg "Loadgen: negative value size"
  | Between (a, b) when a < 0 || b < a -> invalid_arg "Loadgen: bad value-size range"
  | Fixed _ | Between _ -> ())

(* One interarrival gap at [rate] per second.  Poisson arrivals have
   exponentially distributed gaps (the memoryless process real
   independent clients produce — bursts included); Fixed_spacing is
   the deterministic 1/rate metronome. *)
let interarrival schedule rng ~rate =
  match schedule with
  | Fixed_spacing -> 1.0 /. rate
  | Poisson ->
    let u = Rng.float rng 1.0 in
    -.log (1.0 -. u) /. rate

(* The whole intended schedule, as ascending offsets in
   [0, duration_s).  Pure given the generator, so tests can check the
   schedule itself. *)
let arrivals schedule rng ~rate ~duration_s =
  let rec go acc t =
    let t = t +. interarrival schedule rng ~rate in
    if t >= duration_s then List.rev acc else go (t :: acc) t
  in
  Array.of_list (go [] 0.0)

let gen_value cfg rng =
  let len =
    match cfg.value_size with
    | Fixed n -> n
    | Between (a, b) -> a + Rng.int rng (b - a + 1)
  in
  Rng.string rng ~len

let gen_op cfg rng =
  let key = Rng.zipf rng ~n:cfg.keys ~theta:cfg.theta in
  if Rng.float rng 1.0 < cfg.read_fraction then Read key
  else Write (key, gen_value cfg rng)

type result = {
  offered : int;
  completed : int;
  errors : int;
  elapsed_s : float;
  achieved_rate : float;
  latency : Histogram.t;
  max_lag_s : float;
}

(* Per-thread accumulator; merged after join so the hot loop never
   shares state across threads. *)
type worker = {
  w_hist : Histogram.t;
  mutable w_offered : int;
  mutable w_completed : int;
  mutable w_errors : int;
  mutable w_max_lag : float;
  mutable w_last_done : float;
}

let run ?(observe = fun ~latency_s:_ ~ok:_ -> ()) cfg ~exec =
  validate cfg;
  let per_thread_rate = cfg.rate /. float_of_int cfg.threads in
  (* A common start instant shortly in the future: every thread's
     schedule is anchored to it, so the offered rate is the sum of the
     per-thread rates from the first instant. *)
  let start = Unix.gettimeofday () +. 0.05 in
  let worker i =
    let w =
      {
        w_hist = Histogram.create ();
        w_offered = 0;
        w_completed = 0;
        w_errors = 0;
        w_max_lag = 0.0;
        w_last_done = start;
      }
    in
    let rng = Rng.create ~seed:(cfg.seed + (7919 * i)) in
    let schedule =
      arrivals cfg.schedule rng ~rate:per_thread_rate ~duration_s:cfg.duration_s
    in
    let body () =
      Array.iter
        (fun offset ->
          let intended = start +. offset in
          let op = gen_op cfg rng in
          let now = Unix.gettimeofday () in
          if now < intended then Unix.sleepf (intended -. now)
          else if now -. intended > w.w_max_lag then
            w.w_max_lag <- now -. intended;
          w.w_offered <- w.w_offered + 1;
          let ok = match exec ~thread:i op with () -> true | exception _ -> false in
          let finished = Unix.gettimeofday () in
          w.w_last_done <- finished;
          let latency_s = finished -. intended in
          Histogram.record w.w_hist latency_s;
          if ok then w.w_completed <- w.w_completed + 1
          else w.w_errors <- w.w_errors + 1;
          observe ~latency_s ~ok)
        schedule
    in
    (w, body)
  in
  let workers = List.init cfg.threads worker in
  let threads = List.map (fun (_, body) -> Thread.create body ()) workers in
  List.iter Thread.join threads;
  let latency = Histogram.create () in
  let offered = ref 0
  and completed = ref 0
  and errors = ref 0
  and max_lag = ref 0.0
  and last_done = ref start in
  List.iter
    (fun (w, _) ->
      Histogram.merge_into latency w.w_hist;
      offered := !offered + w.w_offered;
      completed := !completed + w.w_completed;
      errors := !errors + w.w_errors;
      if w.w_max_lag > !max_lag then max_lag := w.w_max_lag;
      if w.w_last_done > !last_done then last_done := w.w_last_done)
    workers;
  (* Elapsed runs to the last completion: a run that limps past its
     window (queueing) is charged the extra time in its achieved
     rate. *)
  let elapsed_s = Float.max (!last_done -. start) cfg.duration_s in
  {
    offered = !offered;
    completed = !completed;
    errors = !errors;
    elapsed_s;
    achieved_rate = float_of_int !completed /. elapsed_s;
    latency;
    max_lag_s = !max_lag;
  }

let sweep ?observe ?(on_result = fun _ _ -> ()) cfg ~rates ~exec =
  List.map
    (fun rate ->
      let r = run ?observe { cfg with rate } ~exec in
      on_result rate r;
      (rate, r))
    rates

(* The sustained-throughput knee: the highest offered rate the system
   kept up with (achieved ≥ tolerance·offered) below one it did not.
   Above the knee the open-loop queue grows without bound and latency
   is off the chart.  A ramp that never saturated has no knee: its top
   rate is only a lower bound on one. *)
let knee ?(tolerance = 0.95) results =
  let sustained (rate, r) = r.achieved_rate >= tolerance *. rate in
  let failed = List.map fst (List.filter (fun x -> not (sustained x)) results) in
  List.fold_left
    (fun best ((rate, _) as x) ->
      if sustained x && List.exists (fun f -> f > rate) failed then
        match best with Some b when b >= rate -> best | _ -> Some rate
      else best)
    None results
