(** The GRP benchmark's own metric code: sample statistics and the
    unjustified-eviction rule.  Kept apart from grpbench.ml so the test
    suite can pin both on hand-built inputs. *)

(** {1 Samples} *)

val min_tail : int
(** Samples that must lie beyond a tail percentile for it to be reported
    (10). *)

val quantile : p:float -> float array -> float
(** Nearest-rank quantile, [p] in [\[0, 1\]]; the array need not be sorted.
    @raise Invalid_argument on an empty array. *)

val median : float array -> float

val tail_percentile : p:float -> float array -> float option
(** [quantile ~p] when at least {!min_tail} samples rank beyond it, [None]
    otherwise — p90 needs at least 100 samples. *)

val window_median : float array -> int -> half:int -> float
(** [window_median a i ~half] is the {!median} of [a.(i - half) .. a.(i + half)],
    the window clipped to the array.
    @raise Invalid_argument when [i] is not an index of [a]. *)

val step_medians : float array list -> float array
(** Per-step host time of one item of fixed work from its runs, the first
    (complete) run first: step [i] gets the {!median} of its times over the
    runs that reached it.  A later run may stop early; it then adds no
    sample to the steps it did not reach.  [[]] gives [[||]]. *)

(** {1 Unjustified evictions}

    A node-round fails when it evicts a member from a settled view whose
    group still satisfies [ΠT] in the topology of that round: the paper's
    best-effort promise [ΠT ⇒ ΠC] checked per view. *)

val calm_window : dmax:int -> int
(** [W = 2·dmax + 2] rounds: how long a view must have been unchanged to
    count as settled (the analogue of the fuzz oracle's calm window). *)

val pre_eviction_view :
  view:Dgs_core.Node_id.Set.t ->
  added:Dgs_core.Node_id.Set.t ->
  removed:Dgs_core.Node_id.Set.t ->
  Dgs_core.Node_id.Set.t
(** [(view \ added) ∪ removed]: the view before a step, rebuilt from the
    view after it and the step's [view_added]/[view_removed]. *)

val unjustified :
  dmax:int ->
  Dgs_graph.Graph.t ->
  round:int ->
  last_change:int ->
  pre_view:Dgs_core.Node_id.Set.t ->
  removed:Dgs_core.Node_id.Set.t ->
  bool
(** Whether a step of [round] that removed [removed] from [pre_view] is an
    unjustified eviction: [removed] is non-empty, the view last changed at
    round [last_change] with at least {!calm_window} unchanged rounds in
    between, and [pre_view] still induces a connected subgraph of diameter
    at most [dmax] in the graph the round ran on. *)
