(* The GRP benchmark: one workload per invocation, closed loop,
   one process.

   A simulation workload runs trials.  A trial sets up a fresh network
   from a seed and executes a fixed number of rounds; the next round
   starts when the last one returns.  The run's fixed work is
   [min_trials] trials with seeds derived from --seed.  It runs once, then
   its trials are repeated in full until --seconds of wall time have
   passed since the run began.  The protocol metrics, the attempted/failed
   counts and the digests come from the first pass; every repeat must
   reproduce them.  Each round's host time is the median over its
   repeats, so the timed figures cover the same work on any host.
   fuzz_lossy does the same with campaign batches in place of trials.
   Every host time is scaled to a reference host speed measured by a
   probe between steps (see "Host speed" below).

   Only the program's public calls are timed: the mobility step, graph
   build, [Sharded.set_graph], [Sharded.round], the oracle feed and poll,
   and [Fuzz.campaign].  The eviction test, the reference checks and the
   digests run between rounds, outside the timed window.

   --trace 1 runs the fixed work twice, untraced then traced (per-shard
   metrics registries, [~metrics:true] campaigns and the benchmark's own
   spans), checks that both runs produced the same outputs, and prints the
   per-layer metrics.  A workload on several domains also reruns its fixed
   work on one domain and checks that its outputs do not change. *)

module Mobility = Dgs_mobility.Mobility
module Sharded = Dgs_sim.Sharded
module Incremental = Dgs_spec.Incremental
module P = Dgs_spec.Predicates
module Cfg = Dgs_spec.Configuration
module Snapshotter = Dgs_workload.Harness.Snapshotter
module Vanet = Dgs_workload.Vanet
module Fuzz = Dgs_check.Fuzz
module Registry = Dgs_metrics.Registry
module Names = Dgs_metrics.Names
module Chrome_trace = Dgs_trace.Chrome_trace
module Rng = Dgs_util.Rng
module Graph = Dgs_graph.Graph
module S = Bench_stats
open Dgs_core

let now = Unix.gettimeofday
let origin = now ()
let dmax = 3
let range = 2.0
let jitter = 0.1
let poll_every = 5
let config = Config.make ~dmax ()

type sim = {
  scenario : Vanet.scenario;
  n : int;
  speed : float;
  jobs : int;
  rounds : int;  (** per trial; a multiple of [poll_every] *)
  min_trials : int;
}

type fuzz = { batch : int; min_batches : int; max_actions : int }
type workload = Sim of sim | Fuzz_campaign of fuzz

(* The fixed work must fit in a 25 s run on a 2-core host even when the
   host runs at half speed; several trials per run average over
   placements (perfbench/README.md). *)
let workloads =
  [
    ( "highway_static",
      Sim
        {
          scenario = Vanet.Highway;
          n = 300;
          speed = 0.0;
          jobs = 1;
          rounds = 400;
          min_trials = 3;
        } );
    ( "highway_mobile",
      Sim
        {
          scenario = Vanet.Highway;
          n = 1000;
          speed = 0.15;
          jobs = 2;
          rounds = 60;
          min_trials = 2;
        } );
    ( "city_static",
      Sim
        {
          scenario = Vanet.City;
          n = 150;
          speed = 0.0;
          jobs = 1;
          rounds = 20;
          min_trials = 5;
        } );
    ("fuzz_lossy", Fuzz_campaign { batch = 20; min_batches = 300; max_actions = 12 });
  ]

(* Seed of the [k]-th trial (or batch) of a run. *)
let trial_seed seed k = Hashtbl.hash (seed, k)

let fail fmt = Printf.ksprintf failwith fmt

(* ---- Host speed ----

   A shared host's speed wanders by tens of percent over tens of seconds
   (perfbench/README.md).  Between steps, at most every [probe_gap_s], the
   benchmark times a fixed piece of work in the program's own style:
   balanced-tree set inserts and lookups, with their allocation.  Every
   timed figure is scaled by [probe_ref_s] over the median of the probes
   around it, so it reads as host time on a host where the probe takes
   [probe_ref_s]. *)

module Int_set = Set.Make (Int)

let probe_work () =
  let x = ref 12345 and s = ref Int_set.empty in
  for _ = 1 to 4000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    s := Int_set.add (!x land 0xffff) !s
  done;
  let hits = ref 0 in
  for i = 0 to 4000 do
    if Int_set.mem (i * 16) !s then incr hits
  done;
  !hits

let probe_gap_s = 0.05
let probe_ref_s = 0.001
let probe_half_window = 5
let probes = ref [] (* latest first *)
let probe_count = ref 0
let probe_last = ref neg_infinity

(* Probes the host when the last probe is [probe_gap_s] old, and returns
   the index of the latest probe: the one a step that starts now is
   scaled by. *)
let host_probe () =
  if now () -. !probe_last >= probe_gap_s then begin
    let t0 = now () in
    ignore (Sys.opaque_identity (probe_work ()));
    let t1 = now () in
    probes := (t1 -. t0) :: !probes;
    incr probe_count;
    probe_last := t1
  end;
  !probe_count - 1

(* The scale factor of each probe so far, taken once every step is done. *)
let host_scales () =
  let a = Array.of_list (List.rev !probes) in
  Array.init !probe_count (fun i ->
      probe_ref_s /. S.window_median a i ~half:probe_half_window)

let probe_median_ms () = 1e3 *. S.median (Array.of_list !probes)

(* ---- Simulation trials ---- *)

(* What the traced twin adds: the executor's phase accumulators, the
   oracle counters and the benchmark's own spans. *)
type layers = {
  mutable mobility_s : float;
  mutable build_s : float;
  mutable set_graph_s : float;
  mutable broadcast_s : float;
  mutable barrier_s : float;
  mutable deliver_s : float;
  mutable round_self_s : float;  (** round span minus its child spans *)
  mutable exec_self_s : float;  (** [Sharded.round] span minus its phases *)
  mutable imbalance_sum : float;
  mutable degree_sum : float;
  mutable deliveries : int;
  mutable oracle_polls : int;
  mutable dirtied : int;
  mutable diameters : int;
  mutable pairs : int;
  mutable poll_s : float list;
  mutable spans : Chrome_trace.span list;
  mutable registries : Registry.snapshot list;
}

let layers () =
  {
    mobility_s = 0.0;
    build_s = 0.0;
    set_graph_s = 0.0;
    broadcast_s = 0.0;
    barrier_s = 0.0;
    deliver_s = 0.0;
    round_self_s = 0.0;
    exec_self_s = 0.0;
    imbalance_sum = 0.0;
    degree_sum = 0.0;
    deliveries = 0;
    oracle_polls = 0;
    dirtied = 0;
    diameters = 0;
    pairs = 0;
    poll_s = [];
    spans = [];
    registries = [];
  }

type sim_trial = {
  setup_s : float;
  setup_probe : int;
  round_s : float array;  (** unscaled host time per round *)
  round_probe : int array;  (** host probe each round is scaled by *)
  polls : int;
  legit_polls : int;
  rounds_to_legit : int option;
  evictions : int;
  unjustified : int;  (** node-rounds with an unjustified eviction *)
  node_rounds : int;
  singletons : int;
  minor_words : float;
  promoted_words : float;
  digest : string;
}

let snapshot_of snap t g =
  Snapshotter.snapshot_views snap ~ids:(Sharded.node_ids t)
    ~view:(fun v -> Grp_node.view (Sharded.node t v))
    g

let views_digest t =
  let b = Buffer.create 4096 in
  List.iter
    (fun v ->
      Buffer.add_string b (string_of_int v);
      Buffer.add_char b ':';
      Node_id.Set.iter
        (fun w ->
          Buffer.add_string b (string_of_int w);
          Buffer.add_char b ',')
        (Grp_node.view (Sharded.node t v));
      Buffer.add_char b ';')
    (Sharded.node_ids t);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Set-up: everything a user pays before the first round — mobility,
   first graph build, spatial partition, executor and the cold poll. *)
type net = {
  mob : Mobility.t;
  g0 : Graph.t;
  t : Sharded.t;
  inc : Incremental.t;
  snap : Snapshotter.t;
  setup_s : float;
  setup_probe : int;
}

let setup sim ~seed ~make_metrics =
  let setup_probe = host_probe () in
  let t0 = now () in
  let rng = Rng.create seed in
  let mob =
    Mobility.create (Rng.split rng) ~n:sim.n
      (Vanet.spec_of sim.scenario ~n:sim.n ~range ~speed:sim.speed)
  in
  let g0 = Mobility.graph mob ~range in
  let shard_of =
    Sharded.spatial_partition ~shards:sim.jobs ~range (Mobility.positions mob)
  in
  let t =
    Sharded.create ~config ~shards:sim.jobs ~jobs:sim.jobs ~seed ~shard_of
      ?make_metrics g0
  in
  let inc = Incremental.create ~dmax () in
  let snap = Snapshotter.create () in
  ignore (Incremental.check inc (snapshot_of snap t g0));
  { mob; g0; t; inc; snap; setup_s = now () -. t0; setup_probe }

(* One trial: set-up, then [sim.rounds] rounds.  A [deadline] cuts a
   repeat short at the first poll round past it. *)
let run_sim_trial ?(deadline = infinity) sim ~seed ~(traced : layers option) =
  let registries = ref [] in
  let make_metrics =
    Option.map
      (fun _ _ ->
        let r = Registry.create () in
        registries := r :: !registries;
        r)
      traced
  in
  let { mob; g0; t; inc; snap; setup_s; setup_probe } = setup sim ~seed ~make_metrics in
  let snapshot g = snapshot_of snap t g in
  let moving = sim.speed > 0.0 in
  let stats0 = Incremental.stats inc in
  let deliveries0 = (Sharded.medium_stats t).Dgs_sim.Medium.deliveries in
  let us x = (x -. origin) *. 1e6 in
  let span name a b tid =
    Option.iter
      (fun l ->
        l.spans <-
          { Chrome_trace.name; ts_us = us a; dur_us = (b -. a) *. 1e6; tid }
          :: l.spans)
      traced
  in
  let round_s = Array.make sim.rounds 0.0 in
  let round_probe = Array.make sim.rounds 0 in
  let last_change = Array.make sim.n 0 in
  let g = ref g0 in
  let polls = ref 0 and legit_polls = ref 0 in
  let rounds_to_legit = ref None in
  let evictions = ref 0 and unjustified = ref 0 in
  let minor = ref 0.0 and promoted = ref 0.0 in
  let last_verdict = ref None in
  let r = ref 0 in
  while
    !r < sim.rounds && not (!r > 0 && !r mod poll_every = 0 && now () >= deadline)
  do
    incr r;
    let r = !r in
    round_probe.(r - 1) <- host_probe ();
    let mi0, pr0, _ = Gc.counters () in
    let ts = now () in
    if moving then begin
      Mobility.step mob ~dt:1.0;
      let tm = now () in
      let ng = Mobility.graph mob ~range in
      let tb = now () in
      Sharded.set_graph t ng;
      let tg = now () in
      g := ng;
      span "mobility.step" ts tm 0;
      span "graph.build" tm tb 0;
      span "sim.set_graph" tb tg 0;
      Option.iter
        (fun l ->
          l.mobility_s <- l.mobility_s +. (tm -. ts);
          l.build_s <- l.build_s +. (tb -. tm);
          l.set_graph_s <- l.set_graph_s +. (tg -. tb);
          l.round_self_s <- l.round_self_s -. (tg -. ts))
        traced
    end;
    let b0 = Sharded.broadcast_s t
    and bar0 = Sharded.barrier_s t
    and d0 = Sharded.deliver_s t in
    let tr = now () in
    let infos = Sharded.round ~jitter t in
    let tr' = now () in
    Node_id.Map.iter
      (fun v i ->
        if
          not
            (Node_id.Set.is_empty i.Grp_node.view_removed
            && Node_id.Set.is_empty i.Grp_node.view_added)
        then Incremental.mark_dirty inc v)
      infos;
    let poll = r mod poll_every = 0 in
    let tp = now () in
    if poll then last_verdict := Some (Incremental.check inc (snapshot !g));
    let te = now () in
    let mi1, pr1, _ = Gc.counters () in
    minor := !minor +. (mi1 -. mi0);
    promoted := !promoted +. (pr1 -. pr0);
    round_s.(r - 1) <- te -. ts;
    (* Bookkeeping, outside the timed window. *)
    Option.iter
      (fun l ->
        let b = Sharded.broadcast_s t -. b0
        and bar = Sharded.barrier_s t -. bar0
        and d = Sharded.deliver_s t -. d0 in
        l.broadcast_s <- l.broadcast_s +. b;
        l.barrier_s <- l.barrier_s +. bar;
        l.deliver_s <- l.deliver_s +. d;
        l.exec_self_s <- l.exec_self_s +. (tr' -. tr -. b -. bar -. d);
        l.round_self_s <-
          l.round_self_s +. (te -. ts -. (tr' -. tr) -. (if poll then te -. tp else 0.0));
        let phases = Sharded.shard_phase_s t in
        let ds = Array.map snd phases in
        let mean = Array.fold_left ( +. ) 0.0 ds /. float_of_int (Array.length ds) in
        let mx = Array.fold_left Float.max 0.0 ds in
        l.imbalance_sum <- l.imbalance_sum +. (if mean > 0.0 then mx /. mean else 1.0);
        l.degree_sum <-
          l.degree_sum
          +. (2.0 *. float_of_int (Graph.edge_count !g) /. float_of_int sim.n);
        span "round" ts te 0;
        span "sim.round" tr tr' 0;
        span "sim.broadcast" tr (tr +. b) 0;
        span "sim.barrier" (tr +. b) (tr +. b +. bar) 0;
        span "sim.deliver_compute" (tr +. b +. bar) (tr +. b +. bar +. d) 0;
        Array.iteri
          (fun sx (sb, sd) ->
            span "shard.broadcast" tr (tr +. sb) (sx + 1);
            span "shard.deliver_compute" (tr +. b +. bar) (tr +. b +. bar +. sd)
              (sx + 1))
          phases;
        if poll then begin
          span "oracle.poll" tp te 0;
          l.poll_s <- (te -. tp) :: l.poll_s
        end)
      traced;
    Node_id.Map.iter
      (fun v i ->
        let added = i.Grp_node.view_added and removed = i.Grp_node.view_removed in
        if not (Node_id.Set.is_empty removed) then begin
          evictions := !evictions + Node_id.Set.cardinal removed;
          let pre_view =
            S.pre_eviction_view
              ~view:(Grp_node.view (Sharded.node t v))
              ~added ~removed
          in
          if
            S.unjustified ~dmax !g ~round:r ~last_change:last_change.(v)
              ~pre_view ~removed
          then incr unjustified
        end;
        if not (Node_id.Set.is_empty removed && Node_id.Set.is_empty added) then
          last_change.(v) <- r)
      infos;
    if poll then begin
      incr polls;
      match !last_verdict with
      | Some v when Incremental.legitimate v = None ->
          incr legit_polls;
          if !rounds_to_legit = None then rounds_to_legit := Some r
      | _ -> ()
    end
  done;
  (* Reference check of the last poll, outside the timed window. *)
  let final = snapshot !g in
  let reference = P.legitimate ~dmax final in
  (match !last_verdict with
  | Some v when Incremental.legitimate v = reference -> ()
  | _ -> fail "final Incremental verdict differs from Predicates.legitimate");
  let singletons =
    List.fold_left
      (fun acc grp -> if Node_id.Set.cardinal grp = 1 then acc + 1 else acc)
      0 (Cfg.groups final)
  in
  Option.iter
    (fun l ->
      let s = Incremental.stats inc in
      l.oracle_polls <- l.oracle_polls + (s.Incremental.polls - stats0.Incremental.polls);
      l.dirtied <- l.dirtied + (s.Incremental.dirtied - stats0.Incremental.dirtied);
      l.diameters <-
        l.diameters
        + (s.Incremental.diameters_computed - stats0.Incremental.diameters_computed);
      l.pairs <-
        l.pairs + (s.Incremental.pairs_checked - stats0.Incremental.pairs_checked);
      l.deliveries <-
        l.deliveries
        + ((Sharded.medium_stats t).Dgs_sim.Medium.deliveries - deliveries0);
      l.registries <- List.map Registry.snapshot !registries @ l.registries)
    traced;
  {
    setup_s;
    setup_probe;
    round_s = Array.sub round_s 0 !r;
    round_probe = Array.sub round_probe 0 !r;
    polls = !polls;
    legit_polls = !legit_polls;
    rounds_to_legit = !rounds_to_legit;
    evictions = !evictions;
    unjustified = !unjustified;
    node_rounds = sim.n * !r;
    singletons;
    minor_words = !minor;
    promoted_words = !promoted;
    digest =
      Printf.sprintf "%s/e%d/u%d/p%d/l%d/r%d/s%d" (views_digest t) !evictions
        !unjustified !polls !legit_polls
        (Option.value ~default:0 !rounds_to_legit)
        singletons;
  }

(* ---- Fuzz batches ---- *)

type fuzz_batch = {
  start : float;
  batch_s : float;  (** unscaled *)
  probe : int;  (** host probe the batch is scaled by *)
  failing : (int * string) list;  (** failing run index (campaign-global) and check *)
  stabilized : int;
  minor_words : float;
  promoted_words : float;
  digest : string;
  snapshot : Registry.snapshot option;
}

let run_fuzz_batch f ~seed ~index ~metrics =
  let probe = host_probe () in
  let mi0, pr0, _ = Gc.counters () in
  let t0 = now () in
  let s =
    Fuzz.campaign ~metrics ~seed ~runs:f.batch ~max_actions:f.max_actions ()
  in
  let batch_s = now () -. t0 in
  let mi1, pr1, _ = Gc.counters () in
  let failing =
    List.map
      (fun x ->
        ((index * f.batch) + x.Fuzz.run, x.Fuzz.first_violation.Dgs_check.Oracle.check))
      s.Fuzz.failures
  in
  let digest =
    Printf.sprintf "%d/%d/%d/%s" s.Fuzz.stabilized_runs s.Fuzz.total_evictions
      s.Fuzz.maximality_gaps
      (String.concat "," (List.map (fun (run, check) -> Printf.sprintf "%d:%s" run check) failing))
  in
  {
    start = t0;
    batch_s;
    probe;
    failing;
    stabilized = s.Fuzz.stabilized_runs;
    minor_words = mi1 -. mi0;
    promoted_words = pr1 -. pr0;
    digest;
    snapshot = s.Fuzz.metrics;
  }

(* The fuzz workload's set-up probe: a one-scenario campaign on a fixed
   seed, so it measures a campaign's start-up cost to its first verdict
   and not the content of the run's own batches. *)
let fuzz_setup_probe f =
  let probe = host_probe () in
  let t0 = now () in
  ignore (Fuzz.campaign ~seed:0 ~runs:1 ~max_actions:f.max_actions ());
  (now () -. t0, probe)

(* ---- Metrics ---- *)

(* One reported metric; [None] prints as [missing]. *)
type metric = {
  name : string;
  unit : string;
  value : float option;
  samples : int;
  missing : string;
}

let m name unit ?(samples = 1) ?(missing = "n/a") value =
  { name; unit; value; samples; missing }
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ratio a b = if b > 0.0 then a /. b else 0.0
let ms x = x *. 1e3
(* Read after the first pass, so the repeats cannot raise it. *)
let peak_heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1e6

type result = {
  attempted : int;
  failed : int;
  end_to_end : metric list;  (** the gated metrics, in BENCHMARK.json order *)
  report : metric list;  (** the full end-to-end table *)
  digest : string;
  note : string;
  ops_per_s : float;
  minor_per_op : float;
  promoted_per_op : float;
}

(* The metrics BENCHMARK.json gates, in its order.  [steps] holds one
   host time per step of the fixed work, each the median over that step's
   repeats; [timed] counts every step run. *)
let gated ~ops_per_s ~steps ~timed ~setups ~peak_mb =
  [
    m "ops_per_s" "1/s" ~samples:timed (Some ops_per_s);
    m "step_ms_p50" "ms" ~samples:timed (Some (ms (S.median steps)));
    m "setup_s" "s" ~samples:(Array.length setups) (Some (S.median setups));
    m "peak_heap_mb" "MB" (Some peak_mb);
  ]

let total a = Array.fold_left ( +. ) 0.0 a

(* A timed figure [(seconds, probe)] scaled by its probe's factor. *)
let scaled scales (x, probe) = x *. scales.(probe)

let scaled_rounds scales (t : sim_trial) =
  Array.mapi (fun i x -> scaled scales (x, t.round_probe.(i))) t.round_s

let host_note ~unscaled_ops =
  Printf.sprintf "unscaled %.6g ops/s, host probe median %.4g ms (reference %.4g ms)"
    unscaled_ops (probe_median_ms ()) (ms probe_ref_s)

let step_ms_p90 steps =
  match S.tail_percentile ~p:0.9 steps with
  | Some v -> ms v
  | None -> fail "p90 needs >= 100 steps"

(* Every complete run of an item must repeat its first run's outputs. *)
let check_repeats what ~complete digest (runs : 'a list array) =
  Array.iteri
    (fun k rs ->
      List.iter
        (fun r ->
          if complete r && digest r <> digest (List.hd rs) then
            fail "a repeat of %s %d differs from its first run: %s vs %s" what k
              (digest r) (digest (List.hd rs)))
        rs)
    runs

(* [runs.(k)] holds every run of fixed trial [k], first run first. *)
let sim_result sim (runs : sim_trial list array) ~setups ~peak_mb =
  check_repeats "trial"
    ~complete:(fun (t : sim_trial) -> Array.length t.round_s = sim.rounds)
    (fun (t : sim_trial) -> t.digest)
    runs;
  let fixed = Array.to_list (Array.map List.hd runs) in
  let node_rounds = isum (fun (t : sim_trial) -> t.node_rounds) fixed in
  let nr = float_of_int node_rounds in
  let scales = host_scales () in
  let medians f = Array.map (fun rs -> S.step_medians (List.map f rs)) runs in
  let per_trial = medians (scaled_rounds scales) in
  let steps = Array.concat (Array.to_list per_trial) in
  let unscaled = Array.concat (Array.to_list (medians (fun (t : sim_trial) -> t.round_s))) in
  let setups = Array.of_list (List.map (scaled scales) setups) in
  let timed =
    Array.fold_left
      (fun acc rs -> acc + isum (fun (t : sim_trial) -> Array.length t.round_s) rs)
      0 runs
  in
  let ops_per_s = ratio nr (total steps) in
  let reached =
    List.filter_map
      (fun (k, (t : sim_trial)) -> Option.map (fun r -> (k, r)) t.rounds_to_legit)
      (List.mapi (fun k t -> (k, t)) fixed)
  in
  let stable =
    Array.concat
      (List.map
         (fun (k, r) -> Array.sub per_trial.(k) r (sim.rounds - r))
         reached)
  in
  let gated = gated ~ops_per_s ~steps ~timed ~setups ~peak_mb in
  let find name = List.find (fun x -> x.name = name) gated in
  let mean_opt f =
    match reached with
    | [] -> None
    | _ -> Some (sum f reached /. float_of_int (List.length reached))
  in
  let report =
    [
      { (find "ops_per_s") with name = "node_rounds_per_s"; unit = "node-rounds/s" };
      { (find "step_ms_p50") with name = "round_ms_p50" };
      m "round_ms_p90" "ms" ~samples:timed (Some (step_ms_p90 steps));
      m "rounds_to_legit" "rounds" ~samples:(List.length reached) ~missing:"not reached"
        (mean_opt (fun (_, r) -> float_of_int r));
      m "time_to_legit_s" "s" ~samples:(List.length reached) ~missing:"not reached"
        (mean_opt (fun (k, r) -> total (Array.sub per_trial.(k) 0 r)));
      m "stable_round_ms" "ms" ~samples:(Array.length stable) ~missing:"not reached"
        (if stable = [||] then None else Some (ms (S.median stable)));
      m "legit_poll_share" "ratio" ~samples:(isum (fun (t : sim_trial) -> t.polls) fixed)
        (Some
           (ratio
              (float_of_int (isum (fun (t : sim_trial) -> t.legit_polls) fixed))
              (float_of_int (isum (fun (t : sim_trial) -> t.polls) fixed))));
      m "evictions_per_node_round" "ratio" ~samples:node_rounds
        (Some (float_of_int (isum (fun (t : sim_trial) -> t.evictions) fixed) /. nr));
      m "singleton_share" "ratio" ~samples:(sim.n * List.length fixed)
        (Some
           (float_of_int (isum (fun (t : sim_trial) -> t.singletons) fixed)
           /. float_of_int (sim.n * List.length fixed)));
      m "failed_share" "ratio" ~samples:node_rounds
        (Some (float_of_int (isum (fun (t : sim_trial) -> t.unjustified) fixed) /. nr));
      m "scenarios_per_s" "scenarios/s" ~samples:0 None;
      find "setup_s";
      find "peak_heap_mb";
    ]
  in
  {
    attempted = node_rounds;
    failed = isum (fun (t : sim_trial) -> t.unjustified) fixed;
    end_to_end = gated;
    report;
    digest = String.concat " " (List.map (fun (t : sim_trial) -> t.digest) fixed);
    note =
      Printf.sprintf "legitimate in %d of %d fixed trials; %s" (List.length reached)
        (List.length fixed)
        (host_note ~unscaled_ops:(ratio nr (total unscaled)));
    ops_per_s;
    minor_per_op = sum (fun (t : sim_trial) -> t.minor_words) fixed /. nr;
    promoted_per_op = sum (fun (t : sim_trial) -> t.promoted_words) fixed /. nr;
  }

(* [runs.(k)] holds every run of fixed batch [k], first run first. *)
let fuzz_result f (runs : fuzz_batch list array) ~setups ~peak_mb =
  check_repeats "batch" ~complete:(fun _ -> true) (fun (b : fuzz_batch) -> b.digest) runs;
  let fixed = Array.to_list (Array.map List.hd runs) in
  let runs_n = f.batch * List.length fixed in
  let failing = List.concat_map (fun (b : fuzz_batch) -> b.failing) fixed in
  let failed = List.length failing in
  let scales = host_scales () in
  let medians f =
    Array.map (fun rs -> S.median (Array.of_list (List.map f rs))) runs
  in
  let steps = medians (fun (b : fuzz_batch) -> scaled scales (b.batch_s, b.probe)) in
  let unscaled = medians (fun (b : fuzz_batch) -> b.batch_s) in
  let setups = Array.of_list (List.map (scaled scales) setups) in
  let note =
    "failing runs: "
    ^ String.concat " "
        (List.map (fun (run, check) -> Printf.sprintf "%d:%s" run check) failing)
    ^ "; "
    ^ host_note ~unscaled_ops:(ratio (float_of_int runs_n) (total unscaled))
  in
  let timed = Array.fold_left (fun acc rs -> acc + List.length rs) 0 runs in
  let ops_per_s = ratio (float_of_int runs_n) (total steps) in
  let gated = gated ~ops_per_s ~steps ~timed ~setups ~peak_mb in
  let find name = List.find (fun x -> x.name = name) gated in
  let na name unit = m name unit ~samples:0 None in
  let report =
    [
      na "node_rounds_per_s" "node-rounds/s";
      na "round_ms_p50" "ms";
      na "round_ms_p90" "ms";
      na "rounds_to_legit" "rounds";
      na "time_to_legit_s" "s";
      na "stable_round_ms" "ms";
      na "legit_poll_share" "ratio";
      na "evictions_per_node_round" "ratio";
      na "singleton_share" "ratio";
      m "failed_share" "ratio" ~samples:runs_n
        (Some (float_of_int failed /. float_of_int runs_n));
      { (find "ops_per_s") with name = "scenarios_per_s"; unit = "scenarios/s" };
      find "setup_s";
      find "peak_heap_mb";
    ]
  in
  let nr = float_of_int runs_n in
  {
    attempted = runs_n;
    failed;
    end_to_end = gated;
    report;
    digest = String.concat " " (List.map (fun (b : fuzz_batch) -> b.digest) fixed);
    note;
    ops_per_s;
    minor_per_op = sum (fun (b : fuzz_batch) -> b.minor_words) fixed /. nr;
    promoted_per_op = sum (fun (b : fuzz_batch) -> b.promoted_words) fixed /. nr;
  }

(* ---- Per-layer metrics (traced twin) ---- *)

let counter (s : Registry.snapshot) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name s.Registry.counters))

let timer_ns (s : Registry.snapshot) name =
  match List.assoc_opt name s.Registry.timers with
  | Some t -> (t.Registry.total_ns, t.Registry.spans)
  | None -> (0.0, 0)

(* Every per-layer metric, in output order (BENCHMARK.json lists the
   same).  A workload reports the ones its layers produce; the others
   read 0 — the layer did no work there. *)
let layer_metrics =
  [
    ("mobility.step_ms", "ms");
    ("graph.build_ms", "ms");
    ("graph.mean_degree", "count");
    ("sim.set_graph_ms", "ms");
    ("sim.round_self_ms", "ms");
    ("round.self_ms", "ms");
    ("sim.broadcast_ms", "ms");
    ("sim.deliver_compute_ms", "ms");
    ("sim.barrier_ms", "ms");
    ("sim.shard_imbalance", "ratio");
    ("sim.deliveries_per_node_round", "count");
    ("grp.compute_us", "us");
    ("grp.fold_share", "ratio");
    ("grp.ant_merges_per_compute", "count");
    ("grp.cache_hit_ratio", "ratio");
    ("grp.quarantine_admit_ratio", "ratio");
    ("grp.contest_wins_per_node_round", "ratio");
    ("grp.gate_evictions_per_node_round", "ratio");
    ("gc.minor_words_per_node_round", "words");
    ("gc.promoted_words_per_node_round", "words");
    ("oracle.poll_ms", "ms");
    ("oracle.dirtied_per_poll", "count");
    ("oracle.diameters_per_poll", "count");
    ("oracle.pairs_per_poll", "count");
    ("fuzz.run_ms", "ms");
    ("fuzz.engine_fires_per_scenario", "count");
    ("fuzz.deliveries_per_scenario", "count");
    ("fuzz.loss_share", "ratio");
    ("fuzz.oracle_share", "ratio");
    ("fuzz.stabilized_share", "ratio");
    ("trace.overhead_share", "ratio");
  ]

(* The protocol layer, [node_rounds] being rounds × nodes in a simulation
   and compute() calls in a fuzz campaign. *)
let grp_layer s ~node_rounds =
  let compute_ns, computes = timer_ns s Names.grp_compute_ns in
  let fold_ns, _ = timer_ns s Names.grp_fold_ns in
  let hit = counter s Names.grp_compute_cache_hit_total
  and miss = counter s Names.grp_compute_cache_miss_total in
  [
    ("grp.compute_us", ratio compute_ns (float_of_int computes) /. 1e3);
    ("grp.fold_share", ratio fold_ns compute_ns);
    ( "grp.ant_merges_per_compute",
      ratio (counter s Names.grp_ant_merge_total) (counter s Names.grp_compute_total) );
    ("grp.cache_hit_ratio", ratio hit (hit +. miss));
    ( "grp.quarantine_admit_ratio",
      ratio
        (counter s Names.grp_quarantine_admit_total)
        (counter s Names.grp_quarantine_enter_total) );
    ( "grp.contest_wins_per_node_round",
      ratio (counter s Names.grp_contest_win_total) node_rounds );
    ( "grp.gate_evictions_per_node_round",
      ratio
        (counter s Names.grp_gate_conviction_total
        +. counter s Names.grp_gate_starvation_total)
        node_rounds );
  ]

let gc_layer ~minor ~promoted =
  [
    ("gc.minor_words_per_node_round", minor);
    ("gc.promoted_words_per_node_round", promoted);
  ]

let overhead ~untraced ~traced = ("trace.overhead_share", 1.0 -. ratio traced untraced)

let sim_layers sim (l : layers) (traced : sim_trial list) (untraced : result) =
  let rounds = float_of_int (sim.rounds * List.length traced) in
  let node_rounds = rounds *. float_of_int sim.n in
  let per_round x = ms x /. rounds in
  let polls = float_of_int l.oracle_polls in
  let scales = host_scales () in
  let traced_ops = ratio node_rounds (sum (fun t -> total (scaled_rounds scales t)) traced) in
  [
    ("mobility.step_ms", per_round l.mobility_s);
    ("graph.build_ms", per_round l.build_s);
    ("graph.mean_degree", l.degree_sum /. rounds);
    ("sim.set_graph_ms", per_round l.set_graph_s);
    ("sim.round_self_ms", per_round l.exec_self_s);
    ("round.self_ms", per_round l.round_self_s);
    ("sim.broadcast_ms", per_round l.broadcast_s);
    ("sim.deliver_compute_ms", per_round l.deliver_s);
    ("sim.barrier_ms", per_round l.barrier_s);
    ("sim.shard_imbalance", l.imbalance_sum /. rounds);
    ("sim.deliveries_per_node_round", float_of_int l.deliveries /. node_rounds);
    ("oracle.poll_ms", ms (S.median (Array.of_list l.poll_s)));
    ("oracle.dirtied_per_poll", float_of_int l.dirtied /. polls);
    ("oracle.diameters_per_poll", float_of_int l.diameters /. polls);
    ("oracle.pairs_per_poll", float_of_int l.pairs /. polls);
    overhead ~untraced:untraced.ops_per_s ~traced:traced_ops;
  ]
  @ grp_layer (Registry.merge l.registries) ~node_rounds
  @ gc_layer ~minor:untraced.minor_per_op ~promoted:untraced.promoted_per_op

let fuzz_layers f (traced : fuzz_batch list) (untraced : result) =
  let snap = Registry.merge (List.filter_map (fun b -> b.snapshot) traced) in
  let scenarios = float_of_int (f.batch * List.length traced) in
  let computes = counter snap Names.grp_compute_total in
  let run_ns, _ = timer_ns snap Names.fuzz_run_ns in
  let poll_ns, poll_count = timer_ns snap Names.oracle_poll_ns in
  let delivered = counter snap Names.medium_delivery_total
  and lost = counter snap Names.medium_loss_total
  and dropped = counter snap Names.medium_drop_total in
  (* Per node-round figures count compute() calls as node-rounds; the
     untraced twin made the same calls. *)
  let per_compute x = ratio (x *. float_of_int untraced.attempted) computes in
  let scales = host_scales () in
  let traced_ops =
    ratio scenarios (sum (fun b -> scaled scales (b.batch_s, b.probe)) traced)
  in
  [
    ("oracle.poll_ms", ratio poll_ns (float_of_int poll_count) /. 1e6);
    ("fuzz.run_ms", run_ns /. 1e6 /. scenarios);
    ("fuzz.engine_fires_per_scenario", counter snap Names.engine_fire_total /. scenarios);
    ("fuzz.deliveries_per_scenario", delivered /. scenarios);
    ("fuzz.loss_share", ratio lost (delivered +. lost +. dropped));
    ("fuzz.oracle_share", ratio poll_ns run_ns);
    ( "fuzz.stabilized_share",
      float_of_int (isum (fun b -> b.stabilized) traced) /. scenarios );
    overhead ~untraced:untraced.ops_per_s ~traced:traced_ops;
  ]
  @ grp_layer snap ~node_rounds:computes
  @ gc_layer
      ~minor:(per_compute untraced.minor_per_op)
      ~promoted:(per_compute untraced.promoted_per_op)

(* ---- Runs ---- *)

(* Repeats the fixed work after its first pass ([first]) until
   [deadline], item by item in turn; [run ~deadline k] may cut the last
   repeat short there.  Every run of item [k] is the same work on any
   host; only the number of repeats depends on the host's speed.  Returns
   every run of each item, first run first. *)
let repeat_until ~deadline first run =
  let runs = Array.map (fun x -> [ x ]) first in
  let k = ref 0 in
  while now () < deadline do
    runs.(!k) <- run ~deadline !k :: runs.(!k);
    k := (!k + 1) mod Array.length runs
  done;
  Array.map List.rev runs

let same_outputs what ~expected digests =
  if digests <> expected then
    fail "%s differs from the untraced run: %s vs %s" what digests expected

(* Set-ups timed on their own after each trial run, so [setup_s] is a
   median over every fixed trial's placement, spread over the run. *)
let setup_reps = 3

let run_sim sim ~seed ~seconds ~trace =
  let trial ?deadline ?(jobs = sim.jobs) ~traced k =
    run_sim_trial ?deadline { sim with jobs } ~seed:(trial_seed seed k) ~traced
  in
  let setups = ref [] in
  let sampled ?deadline k =
    let t = trial ?deadline ~traced:None k in
    setups := (t.setup_s, t.setup_probe) :: !setups;
    for _ = 1 to setup_reps do
      let n = setup sim ~seed:(trial_seed seed k) ~make_metrics:None in
      setups := (n.setup_s, n.setup_probe) :: !setups
    done;
    t
  in
  let deadline = now () +. seconds in
  let first = Array.init sim.min_trials (fun k -> sampled k) in
  let peak_mb = peak_heap_mb () in
  if not trace then begin
    let runs = repeat_until ~deadline first (fun ~deadline k -> sampled ~deadline k) in
    (sim_result sim runs ~setups:!setups ~peak_mb, None)
  end
  else begin
    let res =
      sim_result sim
        (Array.map (fun t -> [ t ]) first)
        ~setups:!setups ~peak_mb
    in
    let once ?jobs ~traced () = List.init sim.min_trials (trial ?jobs ~traced) in
    let digests ts = String.concat " " (List.map (fun (t : sim_trial) -> t.digest) ts) in
    let l = layers () in
    let traced = once ~traced:(Some l) () in
    same_outputs "traced run" ~expected:res.digest (digests traced);
    (* Results do not depend on the number of worker domains. *)
    if sim.jobs > 1 then
      same_outputs "run at jobs 1" ~expected:res.digest
        (digests (once ~jobs:1 ~traced:None ()));
    let lanes =
      (0, "rounds (main)")
      :: List.init sim.jobs (fun sx -> (sx + 1, Printf.sprintf "shard %d" sx))
    in
    (res, Some (sim_layers sim l traced res, List.rev l.spans, lanes))
  end

(* One set-up probe every [probe_every] batches. *)
let probe_every = 10

let run_fuzz f ~seed ~seconds ~trace =
  let setups = ref [] in
  let batch ~metrics k =
    if k mod probe_every = 0 then setups := fuzz_setup_probe f :: !setups;
    run_fuzz_batch f ~seed:(trial_seed seed k) ~index:k ~metrics
  in
  let deadline = now () +. seconds in
  let first = Array.init f.min_batches (batch ~metrics:false) in
  let peak_mb = peak_heap_mb () in
  if not trace then begin
    let runs = repeat_until ~deadline first (fun ~deadline:_ k -> batch ~metrics:false k) in
    (fuzz_result f runs ~setups:!setups ~peak_mb, None)
  end
  else begin
    let res =
      fuzz_result f
        (Array.map (fun b -> [ b ]) first)
        ~setups:!setups ~peak_mb
    in
    let traced = List.init f.min_batches (batch ~metrics:true) in
    same_outputs "traced campaign" ~expected:res.digest
      (String.concat " " (List.map (fun (b : fuzz_batch) -> b.digest) traced));
    let spans =
      List.map
        (fun b ->
          {
            Chrome_trace.name = "fuzz.campaign";
            ts_us = (b.start -. origin) *. 1e6;
            dur_us = b.batch_s *. 1e6;
            tid = 0;
          })
        traced
    in
    (res, Some (fuzz_layers f traced res, spans, [ (0, "campaign batches") ]))
  end

(* ---- Output ---- *)

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else fail "non-finite metric %f" x

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, value, unit, samples) ->
      Printf.printf "  %-34s %20s %-14s n=%d\n" name value unit samples)
    rows

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 30.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "grpbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload; one of: " ^ String.concat ", " (List.map fst workloads));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 in
  let res, layers =
    (* Any exception — an output check, [Incremental.Mismatch] — fails the
       run before a result is printed. *)
    try
      match w with
      | Sim s -> run_sim s ~seed:!seed ~seconds:!seconds ~trace
      | Fuzz_campaign f -> run_fuzz f ~seed:!seed ~seconds:!seconds ~trace
    with e ->
      Printf.eprintf "grpbench %s seed=%d: check failed: %s\n" !workload !seed
        (Printexc.to_string e);
      exit 1
  in
  let rows =
    List.map (fun x ->
        let v =
          match x.value with Some v -> Printf.sprintf "%.6g" v | None -> x.missing
        in
        (x.name, v, x.unit, x.samples))
  in
  print_table (Printf.sprintf "%s seed=%d: gated end-to-end (untraced)" !workload !seed)
    (rows res.end_to_end);
  print_table "end-to-end (untraced)" (rows res.report);
  Printf.printf "  attempted %d, failed %d; %s; digest %s\n" res.attempted res.failed
    res.note (Digest.to_hex (Digest.string res.digest));
  let metrics =
    match layers with
    | None -> List.map (fun x -> (x.name, Option.get x.value, x.unit)) res.end_to_end
    | Some (values, spans, thread_names) ->
        List.iter
          (fun (n, _) ->
            if not (List.mem_assoc n layer_metrics) then
              fail "unlisted layer metric %s" n)
          values;
        let rows =
          List.map
            (fun (n, u) -> (n, u, Option.value ~default:0.0 (List.assoc_opt n values)))
            layer_metrics
        in
        print_table "per-layer (traced twin)"
          (List.map (fun (n, u, v) -> (n, Printf.sprintf "%.6g" v, u, 1)) rows);
        let dir = Filename.concat "perfbench" "out" in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let path =
          Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" !workload !seed)
        in
        Chrome_trace.write path ~thread_names spans;
        Printf.printf "  spans: %s\n" path;
        List.map (fun (n, u, v) -> (n, v, u)) rows
  in
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    res.attempted res.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
          metrics))
