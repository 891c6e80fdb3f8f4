(** Ordered lists of ancestor sets (paper Section 4.2).

    A value [(a0, a1, ..., ap)] records, for each hop distance [i], the set
    [ai] of nodes believed to be at distance [i] from the owner ([a0] is the
    owner itself).  Entries carry a {!Mark.t}; marked entries are link-local
    handshake/rejection state and never denote group members.

    The merge [⊕] unions the levels positionwise and keeps only the first
    (closest) occurrence of every node id; [r] prepends an empty level
    (shifting every distance by one); [ant l1 l2 = l1 ⊕ r l2] is the
    strictly idempotent r-operator the protocol folds over incoming lists.

    Deduplication can transiently empty an interior level (a node known at
    distance [k] through one neighbor also appears closer through another).
    The paper's [⊕] "deletes needless information"; we compact such empty
    levels away, which keeps computed lists free of the [∅] sets that
    [goodList] rejects (DESIGN.md Section 5 discusses this choice).  On a
    fixed topology the fixpoint has no gaps, so compaction only smooths the
    convergence phase. *)

type entry = { id : Node_id.t; mark : Mark.t }

type t
(** Immutable: the sorted level arrays and nothing else.  Every query is
    computed on demand from the levels, so a value can be shared between
    domains freely.  Unchanged levels are shared structurally between
    values. *)

val empty : t
(** The list with no levels (never sent; useful as a fold seed in tests). *)

val singleton : Node_id.t -> t
(** [(v)] — a lone unmarked node. *)

val singleton_marked : Node_id.t -> Mark.t -> t
(** [(ū)] or [(ū̄)] — the replacement list for a rejected sender. *)

val of_levels : (Node_id.t * Mark.t) list list -> t
(** Build from raw levels, unchecked except that duplicate ids within a
    level are merged (most severe mark wins).  Intended for tests and fault
    injection; may violate {!well_formed}. *)

val levels : t -> entry list list
(** Levels in distance order; each level sorted by id. *)

val size : t -> int
(** Number of levels — [s(list)] in the paper. *)

val clear_size : t -> int
(** Number of levels after ignoring trailing levels that contain no Clear
    entry.  This is the group-extent length used by the admission tests:
    marked entries are not group members, so a lone node that has merely
    heard a neighbor still has extent 1. *)

val is_empty : t -> bool

val level : t -> int -> entry list
(** [level t i]; empty when out of range. *)

val level_ids : t -> int -> Node_id.Set.t

val level_size : t -> int -> int
(** Entry count of level [i]; 0 when out of range. *)

val fold_level : t -> int -> init:'a -> f:('a -> Node_id.t -> Mark.t -> 'a) -> 'a
(** Allocation-free fold over one level in id order — the hot-path
    replacement for [level] (which materializes an entry list per call). *)

val mark_at : t -> int -> Node_id.t -> Mark.t option
(** Mark of [id] in level [i] (binary search of the sorted level, no
    allocation); [None] when absent or out of range.  Exact on any list,
    including ones with an id at several levels. *)

val mem_clear : t -> Node_id.t -> bool
(** Some occurrence of the id, at any level, is unmarked — one binary
    search per level, no allocation. *)

val first_level : t -> Node_id.t -> int
(** Level of the id's first (closest) occurrence, whatever its mark; -1
    when absent.  The allocation-free counterpart of {!find}'s position. *)

val entry_count : t -> int
(** Total number of entries over all levels. *)

val fold_entries :
  t -> init:'a -> f:('a -> Node_id.t -> int -> Mark.t -> 'a) -> 'a
(** Fold over [(id, position, mark)] in {!entries} order, without
    materializing the entry list. *)

val mem : t -> Node_id.t -> bool
(** [first_level t id >= 0]; allocation-free. *)

val find : t -> Node_id.t -> (int * Mark.t) option
(** Position and mark of the id's first (closest) occurrence, if present:
    {!first_level} plus one binary search.  Allocates only its result. *)

val ids : t -> Node_id.Set.t
(** Every id, marked or not — a fold over the entries, built per call. *)

val clear_ids : t -> Node_id.Set.t
(** Ids of unmarked entries only; built per call like {!ids}. *)

val entries : t -> (Node_id.t * int * Mark.t) list
(** All entries as [(id, position, mark)], position-major order; built
    per call (prefer {!fold_entries} on hot paths). *)

val strip_marked : keep:Node_id.t -> t -> t
(** Remove marked entries except those whose id is [keep] (the receiver
    strips everybody else's marks — they are link-local).  Trailing levels
    left empty are trimmed; interior empty levels are kept so that
    [goodList] can reject genuinely malformed lists. *)

val has_empty_level : t -> bool
(** [∅ ∈ list] — any level with no entries at all. *)

val merge : t -> t -> t
(** The [⊕] operator: positionwise union, first occurrence of each id wins
    (ties within a level keep the most severe mark).  A level emptied by the
    deduplication truncates the result: deeper entries carry unreliable
    distance claims and are dropped rather than pulled closer. *)

val shift : t -> t
(** The [r] endomorphism: prepend an empty level. *)

val ant : t -> t -> t
(** [ant l1 l2 = merge l1 (shift l2)]. *)

(** {2 One-pass ant fold}

    [fold_start f v; fold_add f l1; ...; fold_add f lk; fold_finish f]
    is [List.fold_left ant (singleton v) [l1; ...; lk]], built in one pass
    over a reused id -> level table: no intermediate list per [ant]
    application.  A folder is domain-local scratch, cleared per fold. *)

type folder

val folder : unit -> folder
(** The calling domain's folder.  Folds on one domain must not
    interleave. *)

val fold_start : folder -> Node_id.t -> unit
val fold_add : folder -> t -> unit
val fold_finish : folder -> t

val truncate : t -> int -> t
(** Keep the first [k] levels (paper line 28). *)

val restrict_clear : t -> t
(** Drop all marked entries (no [keep] exception), compacting empty levels
    away, in a single fused pass; used to reason about the group skeleton
    in checkers and tests. *)

val well_formed : t -> bool
(** Invariant of lists produced by [compute]: no duplicate ids across
    levels, no empty levels, marked entries only at positions 0 or 1. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
