(** Node identities.

    The paper assumes unique, comparable node identifiers; we use
    non-negative integers, which also index simulator arrays. *)

type t = int

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

module Set = Dgs_util.Int_set
module Map : Map.S with type key = t

module Tbl : Hashtbl.S with type key = t
(** Int-specialised hash table (identity hash: ids are small dense
    integers), for per-compute tables on the hot path. *)

val set_of_list : t list -> Set.t
val pp_set : Format.formatter -> Set.t -> unit

(** {2 Sorted id arrays}

    A flat stand-in for {!Set} on hot paths that only build a set once and
    test it for overlap. *)

val sorted_of_prefix : t array -> int -> t array
(** [sorted_of_prefix buf n]: the first [n] ids of [buf], sorted and
    deduplicated, in a fresh array ([buf] is not modified). *)

val disjoint_sorted : t array -> t array -> bool
(** Two-pointer disjointness test of two sorted duplicate-free arrays. *)

val mem_sorted : t array -> t -> bool
(** Binary search of a sorted array. *)
