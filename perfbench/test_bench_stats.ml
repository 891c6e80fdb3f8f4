module S = Bench_stats
module Node_id = Dgs_core.Node_id

let samples n = Array.init n (fun i -> float_of_int (n - i))
let opt = Alcotest.(option (float 0.0))

let test_quantile () =
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 (S.quantile ~p:0.5 (samples 100));
  Alcotest.(check (float 0.0)) "p90 of 1..100" 90.0 (S.quantile ~p:0.9 (samples 100));
  Alcotest.(check (float 0.0)) "median of one" 7.0 (S.median [| 7.0 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Bench_stats.quantile: no samples")
    (fun () -> ignore (S.median [||]))

let test_tail_rule () =
  let p90 n = S.tail_percentile ~p:0.9 (samples n) in
  Alcotest.check opt "p90 with 10 beyond" (Some 90.0) (p90 100);
  Alcotest.check opt "p90 with 9 beyond" None (p90 99);
  Alcotest.check opt "p99 with 10 beyond" (Some 990.0)
    (S.tail_percentile ~p:0.99 (samples 1000));
  Alcotest.check opt "p99 with 1 beyond" None (S.tail_percentile ~p:0.99 (samples 100));
  Alcotest.check opt "no samples" None (S.tail_percentile ~p:0.5 [||])

let test_step_medians () =
  Alcotest.(check (array (float 0.0)))
    "median per step; a cut run adds to the steps it reached" [| 2.0; 5.0; 7.0 |]
    (S.step_medians [ [| 1.0; 5.0; 9.0 |]; [| 3.0; 6.0; 7.0 |]; [| 2.0; 4.0 |] ]);
  Alcotest.(check (array (float 0.0))) "one run" [| 4.0 |] (S.step_medians [ [| 4.0 |] ]);
  Alcotest.(check (array (float 0.0))) "no runs" [||] (S.step_medians [])

let test_window_median () =
  let a = [| 9.0; 1.0; 2.0; 8.0; 3.0; 7.0 |] in
  Alcotest.(check (float 0.0)) "centred window" 3.0 (S.window_median a 2 ~half:2);
  Alcotest.(check (float 0.0)) "clipped at the start" 1.0 (S.window_median a 0 ~half:1);
  Alcotest.(check (float 0.0)) "clipped at the end" 7.0 (S.window_median a 5 ~half:2);
  Alcotest.(check (float 0.0)) "half 0" 8.0 (S.window_median a 3 ~half:0);
  Alcotest.check_raises "outside"
    (Invalid_argument "Bench_stats.window_median: index out of range") (fun () ->
      ignore (S.window_median a 6 ~half:1))

let set = Node_id.set_of_list

(* A path 0-1-2-3-4: views of up to 4 consecutive nodes have diameter
   <= 3 = dmax, the whole path does not. *)
let path = Dgs_graph.Graph.of_edges [ (0, 1); (1, 2); (2, 3); (3, 4) ]

let unjustified ~last_change ~pre_view =
  S.unjustified ~dmax:3 path ~round:20 ~last_change ~pre_view ~removed:(set [ 2 ])

let test_pre_view () =
  Alcotest.(check (list int))
    "(view' \\ added) u removed" [ 0; 1; 2 ]
    (Node_id.Set.elements
       (S.pre_eviction_view ~view:(set [ 0; 1; 3 ]) ~added:(set [ 3 ])
          ~removed:(set [ 2 ])))

let test_unjustified () =
  let window = S.calm_window ~dmax:3 in
  Alcotest.(check int) "W = 2 dmax + 2" 8 window;
  let settled = 20 - 1 - window in
  Alcotest.(check bool) "settled view, PiT held" true
    (unjustified ~last_change:settled ~pre_view:(set [ 0; 1; 2 ]));
  Alcotest.(check bool) "one round short of settled" false
    (unjustified ~last_change:(settled + 1) ~pre_view:(set [ 0; 1; 2 ]));
  Alcotest.(check bool) "stretched view (diameter 4)" false
    (unjustified ~last_change:0 ~pre_view:(set [ 0; 1; 2; 3; 4 ]));
  Alcotest.(check bool) "disconnected view" false
    (unjustified ~last_change:0 ~pre_view:(set [ 0; 2 ]));
  Alcotest.(check bool) "no removal" false
    (S.unjustified ~dmax:3 path ~round:20 ~last_change:0 ~pre_view:(set [ 0; 1 ])
       ~removed:Node_id.Set.empty)

let () =
  Alcotest.run "perfbench"
    [
      ( "samples",
        [
          Alcotest.test_case "nearest-rank quantile" `Quick test_quantile;
          Alcotest.test_case ">= 10 samples beyond a tail percentile" `Quick
            test_tail_rule;
          Alcotest.test_case "per-step median over repeats" `Quick test_step_medians;
          Alcotest.test_case "median of a window of samples" `Quick test_window_median;
        ] );
      ( "evictions",
        [
          Alcotest.test_case "pre-eviction view" `Quick test_pre_view;
          Alcotest.test_case "unjustified-eviction rule" `Quick test_unjustified;
        ] );
    ]
