(* The open-loop load generator: schedules, mixes, and the
   coordinated-omission accounting.

   Schedule and mix internals are pure given the RNG, so most of this
   is deterministic; the [run] tests drive a fake [exec] and assert on
   counts and latency floors rather than exact timings. *)

module L = Sdb_loadgen.Loadgen
module Rng = Sdb_util.Rng
module Histogram = Sdb_util.Histogram

let check = Alcotest.check

let test_fixed_spacing () =
  let rng = Rng.create ~seed:1 in
  check (Alcotest.float 1e-12) "metronome gap" 0.01
    (L.interarrival L.Fixed_spacing rng ~rate:100.0);
  let a = L.arrivals L.Fixed_spacing rng ~rate:100.0 ~duration_s:1.0 in
  check Alcotest.int "count fills the window" 99 (Array.length a);
  Array.iteri
    (fun i t ->
      check (Alcotest.float 1e-9) "evenly spaced"
        (0.01 *. float_of_int (i + 1))
        t)
    a

let test_poisson_mean () =
  let rng = Rng.create ~seed:2 in
  let rate = 1000.0 in
  let a = L.arrivals L.Poisson rng ~rate ~duration_s:5.0 in
  let n = Array.length a in
  (* Mean of a Poisson count at rate*duration = 5000; 4 sigma is ~283. *)
  check Alcotest.bool "count near rate*duration" true (n > 4700 && n < 5300);
  Array.iteri
    (fun i t ->
      if i > 0 then
        check Alcotest.bool "strictly within window and ascending" true
          (t > a.(i - 1) && t < 5.0))
    a

let test_mix_and_values () =
  let cfg = { L.default with L.keys = 50; read_fraction = 1.0 } in
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 200 do
    match L.gen_op cfg rng with
    | L.Read k -> check Alcotest.bool "key in range" true (k >= 0 && k < 50)
    | L.Write _ -> Alcotest.fail "read_fraction 1.0 produced a write"
  done;
  let cfg =
    { L.default with L.read_fraction = 0.0; value_size = L.Between (3, 5) }
  in
  for _ = 1 to 200 do
    match L.gen_op cfg rng with
    | L.Read _ -> Alcotest.fail "read_fraction 0.0 produced a read"
    | L.Write (_, v) ->
      check Alcotest.bool "value size in range" true
        (String.length v >= 3 && String.length v <= 5)
  done

let test_validation () =
  let invalid cfg = try ignore (L.run cfg ~exec:(fun ~thread:_ _ -> ())); false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "zero rate refused" true
    (invalid { L.default with L.rate = 0.0 });
  check Alcotest.bool "bad mix refused" true
    (invalid { L.default with L.read_fraction = 1.5 });
  check Alcotest.bool "bad value range refused" true
    (invalid { L.default with L.value_size = L.Between (5, 3) })

let quick_cfg =
  { L.default with L.rate = 2000.0; duration_s = 0.2; threads = 2; keys = 16 }

let test_run_counts () =
  let hits = Atomic.make 0 in
  let r =
    L.run quick_cfg ~exec:(fun ~thread:_ _ -> Atomic.incr hits)
  in
  check Alcotest.bool "schedule was non-trivial" true (r.L.offered > 100);
  check Alcotest.int "exec saw every arrival" r.L.offered (Atomic.get hits);
  check Alcotest.int "all completed" r.L.offered r.L.completed;
  check Alcotest.int "no errors" 0 r.L.errors;
  check Alcotest.int "every op in the histogram" r.L.offered
    (Histogram.count r.L.latency);
  check Alcotest.bool "achieved rate positive" true (r.L.achieved_rate > 0.0);
  check Alcotest.bool "elapsed at least the window" true
    (r.L.elapsed_s >= quick_cfg.L.duration_s)

let test_latency_from_intended_arrival () =
  (* Every op takes 2 ms of service time, so even the fastest op's
     latency is bounded below by it; a stalled server can only push
     latencies up (queueing from the intended instant), never down. *)
  let r =
    L.run
      { quick_cfg with L.rate = 300.0 }
      ~exec:(fun ~thread:_ _ -> Unix.sleepf 0.002)
  in
  check Alcotest.bool "floor is the service time" true
    (Histogram.percentile r.L.latency 0.0 >= 0.002)

let test_errors_counted () =
  let r =
    L.run
      { quick_cfg with L.read_fraction = 0.5 }
      ~exec:(fun ~thread:_ op ->
        match op with L.Read _ -> () | L.Write _ -> failwith "write refused")
  in
  check Alcotest.bool "some writes were offered" true (r.L.errors > 0);
  check Alcotest.int "errors and successes partition the offered load"
    r.L.offered
    (r.L.completed + r.L.errors);
  check Alcotest.int "failed ops still have latencies" r.L.offered
    (Histogram.count r.L.latency)

(* Fabricate sweep results: the knee logic is pure. *)
let fake_result achieved =
  {
    L.offered = 0;
    completed = 0;
    errors = 0;
    elapsed_s = 1.0;
    achieved_rate = achieved;
    latency = Histogram.create ();
    max_lag_s = 0.0;
  }

let test_knee () =
  let results =
    [
      (100.0, fake_result 100.0);
      (200.0, fake_result 197.0);
      (400.0, fake_result 230.0);
      (800.0, fake_result 231.0);
    ]
  in
  check (Alcotest.option (Alcotest.float 1e-9)) "highest sustained rate"
    (Some 200.0) (L.knee results);
  check (Alcotest.option (Alcotest.float 1e-9)) "tolerance widens the knee"
    (Some 400.0)
    (L.knee ~tolerance:0.5 results);
  check (Alcotest.option (Alcotest.float 1e-9)) "no rate sustained" None
    (L.knee [ (100.0, fake_result 20.0) ]);
  check (Alcotest.option (Alcotest.float 1e-9)) "never saturated" None
    (L.knee [ (100.0, fake_result 100.0); (200.0, fake_result 198.0) ]);
  check (Alcotest.option (Alcotest.float 1e-9))
    "a sustained rate above a failed one is not the knee" (Some 100.0)
    (L.knee
       [ (100.0, fake_result 100.0); (200.0, fake_result 150.0);
         (400.0, fake_result 399.0) ])

let () =
  Helpers.run "loadgen"
    [
      ( "schedule",
        [
          Alcotest.test_case "fixed spacing" `Quick test_fixed_spacing;
          Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
          Alcotest.test_case "mix and value sizes" `Quick test_mix_and_values;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "run",
        [
          Alcotest.test_case "counts" `Quick test_run_counts;
          Alcotest.test_case "latency from intended arrival" `Quick
            test_latency_from_intended_arrival;
          Alcotest.test_case "errors counted" `Quick test_errors_counted;
          Alcotest.test_case "knee" `Quick test_knee;
        ] );
    ]
