(* Unit tests for the ordered-lists-of-ancestor-sets structure and the
   ant r-operator (paper Section 4.2). *)

open Dgs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let al = Alcotest.testable Antlist.pp Antlist.equal

let of_clear levels =
  Antlist.of_levels (List.map (List.map (fun id -> (id, Mark.Clear))) levels)

let test_singleton () =
  let l = Antlist.singleton 5 in
  check_int "size" 1 (Antlist.size l);
  check "mem" true (Antlist.mem l 5);
  check "find pos" true (Antlist.find l 5 = Some (0, Mark.Clear))

let test_singleton_marked () =
  let l = Antlist.singleton_marked 7 Mark.Double in
  check "marked entry" true (Antlist.find l 7 = Some (0, Mark.Double));
  check_int "clear size of all-marked" 0 (Antlist.clear_size l)

let test_paper_example () =
  (* ({d},{b},{a,c}) ⊕ ({c},{a,e},{b}) = ({d,c},{b,a,e}) with
     d=0 b=1 a=2 c=3 e=4. *)
  let l1 = of_clear [ [ 0 ]; [ 1 ]; [ 2; 3 ] ] in
  let l2 = of_clear [ [ 3 ]; [ 2; 4 ]; [ 1 ] ] in
  let merged = Antlist.merge l1 l2 in
  Alcotest.check al "paper merge example" (of_clear [ [ 0; 3 ]; [ 1; 2; 4 ] ]) merged

let test_shift () =
  let l = of_clear [ [ 1 ]; [ 2 ] ] in
  let s = Antlist.shift l in
  check_int "size grows" 3 (Antlist.size s);
  check "entry shifted" true (Antlist.find s 1 = Some (1, Mark.Clear));
  check "empty shift" true (Antlist.is_empty (Antlist.shift Antlist.empty))

let test_ant_basic () =
  (* ant((v), (u)) = ({v},{u}) — the neighbor lands at distance 1. *)
  let r = Antlist.ant (Antlist.singleton 0) (Antlist.singleton 1) in
  Alcotest.check al "neighbor at 1" (of_clear [ [ 0 ]; [ 1 ] ]) r

let test_ant_dedupe_keeps_closest () =
  (* u appears at distance 1 directly and at distance 2 via the other
     list: the closest occurrence wins. *)
  let own = of_clear [ [ 0 ]; [ 1 ] ] in
  let from_2 = of_clear [ [ 2 ]; [ 1 ] ] in
  let r = Antlist.ant own from_2 in
  check "1 stays at distance 1" true (Antlist.find r 1 = Some (1, Mark.Clear));
  check "2 at distance 1" true (Antlist.find r 2 = Some (1, Mark.Clear))

let test_ant_self_dedupe () =
  (* The receiver's echo in the incoming list is shadowed by its own
     position-0 entry. *)
  let incoming = of_clear [ [ 1 ]; [ 0; 2 ] ] in
  let r = Antlist.ant (Antlist.singleton 0) incoming in
  check "self at 0" true (Antlist.find r 0 = Some (0, Mark.Clear));
  check "no duplicate" true (Antlist.well_formed r);
  check "2 at distance 2" true (Antlist.find r 2 = Some (2, Mark.Clear))

let test_gap_truncation () =
  (* If deduplication empties an interior level, everything deeper is
     dropped instead of slid closer (DESIGN.md Section 5). *)
  let acc = of_clear [ [ 0 ]; [ 1 ] ] in
  (* sender 2's list: 2 at 0, 1 at 1 (will dedupe to nothing at level 2),
     9 at 2 (claims distance 3 via a support that vanished). *)
  let incoming = of_clear [ [ 2 ]; [ 1 ]; [ 9 ] ] in
  let r = Antlist.ant acc incoming in
  check "9 dropped at the gap" false (Antlist.mem r 9);
  check_int "truncated size" 2 (Antlist.size r)

let test_merge_mark_severity () =
  let a = Antlist.of_levels [ [ (1, Mark.Single) ] ] in
  let b = Antlist.of_levels [ [ (1, Mark.Double) ] ] in
  let m = Antlist.merge a b in
  check "severest mark wins in-level" true (Antlist.find m 1 = Some (0, Mark.Double))

let test_clear_size_ignores_marked_tail () =
  let l = Antlist.of_levels [ [ (0, Mark.Clear) ]; [ (1, Mark.Single); (2, Mark.Double) ] ] in
  check_int "raw size" 2 (Antlist.size l);
  check_int "clear size" 1 (Antlist.clear_size l);
  let l2 = Antlist.of_levels [ [ (0, Mark.Clear) ]; [ (1, Mark.Single); (2, Mark.Clear) ] ] in
  check_int "clear entry counts" 2 (Antlist.clear_size l2)

let test_strip_marked () =
  let l =
    Antlist.of_levels
      [ [ (0, Mark.Clear) ]; [ (1, Mark.Single); (2, Mark.Clear); (3, Mark.Double) ] ]
  in
  let s = Antlist.strip_marked ~keep:3 l in
  check "clear kept" true (Antlist.mem s 2);
  check "other marked dropped" false (Antlist.mem s 1);
  check "keep exception" true (Antlist.find s 3 = Some (1, Mark.Double));
  (* Stripping a trailing all-marked level trims it. *)
  let l2 = Antlist.of_levels [ [ (0, Mark.Clear) ]; [ (1, Mark.Single) ] ] in
  check_int "trailing trim" 1 (Antlist.size (Antlist.strip_marked ~keep:0 l2))

let test_strip_keeps_interior_empty () =
  (* An interior level emptied by stripping stays, so goodList can reject
     the malformed shape. *)
  let l =
    Antlist.of_levels
      [ [ (0, Mark.Clear) ]; [ (1, Mark.Double) ]; [ (2, Mark.Clear) ] ]
  in
  let s = Antlist.strip_marked ~keep:9 l in
  check "has empty level" true (Antlist.has_empty_level s);
  check_int "size kept" 3 (Antlist.size s)

let test_truncate () =
  let l = of_clear [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ] in
  let t = Antlist.truncate l 2 in
  check_int "truncated" 2 (Antlist.size t);
  check "far node gone" false (Antlist.mem t 3);
  check_int "truncate beyond size" 4 (Antlist.size (Antlist.truncate l 10))

let test_ids_and_entries () =
  let l = Antlist.of_levels [ [ (0, Mark.Clear) ]; [ (1, Mark.Single); (2, Mark.Clear) ] ] in
  Alcotest.(check (list int)) "ids" [ 0; 1; 2 ] (Node_id.Set.elements (Antlist.ids l));
  Alcotest.(check (list int)) "clear ids" [ 0; 2 ]
    (Node_id.Set.elements (Antlist.clear_ids l));
  check_int "entries" 3 (List.length (Antlist.entries l));
  Alcotest.(check (list int)) "level ids" [ 1; 2 ]
    (Node_id.Set.elements (Antlist.level_ids l 1));
  check "out of range level" true (Antlist.level l 7 = [])

let test_well_formed () =
  check "good" true (Antlist.well_formed (of_clear [ [ 0 ]; [ 1; 2 ] ]));
  check "duplicate id" false (Antlist.well_formed (of_clear [ [ 0 ]; [ 0 ] ]));
  check "empty level" false
    (Antlist.well_formed (Antlist.of_levels [ [ (0, Mark.Clear) ]; []; [ (2, Mark.Clear) ] ]));
  check "deep mark" false
    (Antlist.well_formed
       (Antlist.of_levels [ [ (0, Mark.Clear) ]; [ (1, Mark.Clear) ]; [ (2, Mark.Single) ] ]))

let test_restrict_clear () =
  let l =
    Antlist.of_levels [ [ (0, Mark.Clear) ]; [ (1, Mark.Double) ]; [ (2, Mark.Clear) ] ]
  in
  let r = Antlist.restrict_clear l in
  check "marked gone" false (Antlist.mem r 1);
  check "clear kept" true (Antlist.mem r 0 && Antlist.mem r 2)

let test_compare_equal () =
  let a = of_clear [ [ 0 ]; [ 1 ] ] in
  let b = of_clear [ [ 0 ]; [ 1 ] ] in
  check "equal" true (Antlist.equal a b);
  check_int "compare zero" 0 (Antlist.compare a b);
  let c = Antlist.of_levels [ [ (0, Mark.Clear) ]; [ (1, Mark.Single) ] ] in
  check "marks distinguish" false (Antlist.equal a c);
  let d = Antlist.of_levels [ [ (0, Mark.Clear) ]; [ (1, Mark.Double) ] ] in
  check "single vs double distinguish" false (Antlist.equal c d)

(* --- r-operator laws, with qcheck --- *)

(* Random unmarked lists with unique ids per list (the representation
   invariant of computed lists): the algebraic laws are about the distance
   structure; marks are exercised by the unit tests above. *)
let gen_antlist =
  QCheck.Gen.(
    let* n_levels = int_range 1 4 in
    let* sizes = list_repeat n_levels (int_range 1 3) in
    let total = List.fold_left ( + ) 0 sizes in
    let* ids = shuffle_l (List.init 16 (fun i -> i)) in
    let rec take k l = if k = 0 then ([], l) else
      match l with [] -> ([], []) | x :: r -> let (a, b) = take (k - 1) r in (x :: a, b)
    in
    let picked, _ = take total ids in
    let rec split sizes pool = match sizes with
      | [] -> []
      | k :: rest -> let (lvl, pool') = take k pool in
          List.map (fun id -> (id, Mark.Clear)) lvl :: split rest pool'
    in
    return (Antlist.of_levels (split sizes picked)))

let arb_antlist = QCheck.make ~print:Antlist.to_string gen_antlist

let prop_merge_idempotent =
  QCheck.Test.make ~name:"merge idempotent: l ⊕ l has l's ids at l's positions or closer"
    ~count:200 arb_antlist (fun l ->
      let m = Antlist.merge l l in
      Node_id.Set.subset (Antlist.ids m) (Antlist.ids l))

let prop_ant_absorbs_self =
  QCheck.Test.make ~name:"idempotency: merge l (merge l r) = merge l r" ~count:200
    (QCheck.pair arb_antlist arb_antlist) (fun (l, r) ->
      let lr = Antlist.merge l r in
      Antlist.equal (Antlist.merge l lr) lr)

let prop_merge_ids_bounded =
  QCheck.Test.make ~name:"merge ids ⊆ union of ids" ~count:200
    (QCheck.pair arb_antlist arb_antlist) (fun (a, b) ->
      Node_id.Set.subset
        (Antlist.ids (Antlist.merge a b))
        (Node_id.Set.union (Antlist.ids a) (Antlist.ids b)))

let prop_merge_no_duplicates =
  QCheck.Test.make ~name:"merge output has unique ids" ~count:200
    (QCheck.pair arb_antlist arb_antlist) (fun (a, b) ->
      let m = Antlist.merge a b in
      let all = Antlist.entries m in
      List.length all
      = Node_id.Set.cardinal
          (Node_id.Set.of_list (List.map (fun (id, _, _) -> id) all)))

let prop_merge_positions_min =
  QCheck.Test.make ~name:"merge keeps positions no farther than either input" ~count:200
    (QCheck.pair arb_antlist arb_antlist) (fun (a, b) ->
      let m = Antlist.merge a b in
      List.for_all
        (fun (id, pos, _) ->
          let best =
            match (Antlist.find a id, Antlist.find b id) with
            | Some (pa, _), Some (pb, _) -> min pa pb
            | Some (pa, _), None -> pa
            | None, Some (pb, _) -> pb
            | None, None -> max_int
          in
          pos >= best)
        (Antlist.entries m))

let prop_shift_increments =
  QCheck.Test.make ~name:"shift moves every entry one level deeper" ~count:200 arb_antlist
    (fun l ->
      let s = Antlist.shift l in
      List.for_all
        (fun (id, pos, _) -> Antlist.find s id = Some (pos + 1, Mark.Clear))
        (Antlist.entries l))

let qcheck_suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_merge_idempotent;
      prop_ant_absorbs_self;
      prop_merge_ids_bounded;
      prop_merge_no_duplicates;
      prop_merge_positions_min;
      prop_shift_increments;
    ]

(* --- algebra laws over the fuzzer's generators --- *)

(* [Dgs_check.Arbitrary] drives everything from one [Rng] seed, and covers
   what [gen_antlist] above deliberately does not: marked entries, and (via
   [Arbitrary.antlist]) ill-formed lists with duplicate ids, interior empty
   levels and deep marks — the shapes fault injection produces.  A failure
   reports the seed, which replays the exact inputs. *)

module Arbitrary = Dgs_check.Arbitrary
module Rng = Dgs_util.Rng

let for_all_seeds name prop =
  for seed = 0 to 499 do
    if not (prop (Rng.create seed)) then
      Alcotest.failf "%s: fails for Rng seed %d" name seed
  done

let test_arb_merge_well_formed () =
  for_all_seeds "merge of well-formed is well-formed" (fun rng ->
      let a = Arbitrary.well_formed_antlist rng in
      let b = Arbitrary.well_formed_antlist rng in
      Antlist.well_formed (Antlist.merge a b))

let test_arb_merge_commutative () =
  for_all_seeds "merge commutes on well-formed inputs" (fun rng ->
      let a = Arbitrary.well_formed_antlist rng in
      let b = Arbitrary.well_formed_antlist rng in
      Antlist.equal (Antlist.merge a b) (Antlist.merge b a))

let test_arb_merge_idempotent_exact () =
  for_all_seeds "l ⊕ l = l on well-formed l" (fun rng ->
      let l = Arbitrary.well_formed_antlist rng in
      Antlist.equal (Antlist.merge l l) l)

let test_arb_truncate_well_formed () =
  for_all_seeds "truncate preserves well-formedness" (fun rng ->
      let l = Arbitrary.well_formed_antlist rng in
      let k = Rng.int rng (Antlist.size l + 2) in
      Antlist.well_formed (Antlist.truncate l k))

let test_arb_restrict_clear_well_formed () =
  for_all_seeds "restrict_clear preserves well-formedness" (fun rng ->
      let l = Arbitrary.well_formed_antlist rng in
      Antlist.well_formed (Antlist.restrict_clear l))

let test_arb_ant_well_formed () =
  (* The r-operator itself moves the neighbor's link-local marks to
     position 2, so [ant] only preserves well-formedness once the receiver
     has stripped them — which is exactly what the protocol does before
     folding. *)
  for_all_seeds "ant over a stripped neighbor list is well-formed" (fun rng ->
      let a = Arbitrary.well_formed_antlist rng in
      let b = Arbitrary.well_formed_antlist rng in
      Antlist.well_formed (Antlist.ant a (Antlist.restrict_clear b)))

let test_arb_strip_marked_claims () =
  (* strip_marked does NOT promise well-formedness (it keeps interior empty
     levels so goodList can reject the result); the accurate contract is
     about which entries survive. *)
  for_all_seeds "strip_marked keeps clear entries and only [keep]'s marks"
    (fun rng ->
      let l = Arbitrary.antlist rng in
      let keep = Rng.int rng 10 in
      let s = Antlist.strip_marked ~keep l in
      Node_id.Set.subset (Antlist.ids s) (Antlist.ids l)
      && Node_id.Set.subset (Antlist.clear_ids l) (Antlist.ids s)
      && List.for_all
           (fun (id, _, mark) -> mark = Mark.Clear || id = keep)
           (Antlist.entries s))

let test_arb_restrict_clear_reference () =
  (* Pins the fused single-pass [restrict_clear] to the obvious two-pass
     model (filter each level to Clear entries, then drop emptied levels),
     on arbitrary — including ill-formed — inputs. *)
  for_all_seeds "restrict_clear = filter-then-compact reference" (fun rng ->
      let l = Arbitrary.antlist rng in
      let reference =
        Antlist.of_levels
          (Antlist.levels l
          |> List.map
               (List.filter_map (fun e ->
                    if e.Antlist.mark = Mark.Clear then
                      Some (e.Antlist.id, e.Antlist.mark)
                    else None))
          |> List.filter (fun lvl -> lvl <> []))
      in
      Antlist.equal (Antlist.restrict_clear l) reference)

let test_arb_merge_dedup_on_junk () =
  (* Even on ill-formed inputs, ⊕ deduplicates: unique ids, each no farther
     than its best occurrence in either input. *)
  for_all_seeds "merge dedups arbitrary (ill-formed) inputs" (fun rng ->
      let a = Arbitrary.antlist rng in
      let b = Arbitrary.antlist rng in
      let m = Antlist.merge a b in
      let all = Antlist.entries m in
      List.length all
      = Node_id.Set.cardinal
          (Node_id.Set.of_list (List.map (fun (id, _, _) -> id) all))
      && List.for_all
           (fun (id, pos, _) ->
             let best =
               match (Antlist.find a id, Antlist.find b id) with
               | Some (pa, _), Some (pb, _) -> min pa pb
               | Some (pa, _), None -> pa
               | None, Some (pb, _) -> pb
               | None, None -> max_int
             in
             pos >= best)
           all)

let arbitrary_suite =
  [
    ("arb: merge well-formed", `Quick, test_arb_merge_well_formed);
    ("arb: merge commutative", `Quick, test_arb_merge_commutative);
    ("arb: merge idempotent", `Quick, test_arb_merge_idempotent_exact);
    ("arb: truncate well-formed", `Quick, test_arb_truncate_well_formed);
    ("arb: restrict_clear well-formed", `Quick, test_arb_restrict_clear_well_formed);
    ("arb: restrict_clear matches reference", `Quick, test_arb_restrict_clear_reference);
    ("arb: ant well-formed after strip", `Quick, test_arb_ant_well_formed);
    ("arb: strip_marked contract", `Quick, test_arb_strip_marked_claims);
    ("arb: merge dedups junk", `Quick, test_arb_merge_dedup_on_junk);
  ]

(* --- one-pass ant fold vs the sequential chain --- *)

let fold_chain self ls = List.fold_left Antlist.ant (Antlist.singleton self) ls

let fold_one_pass self ls =
  let f = Antlist.folder () in
  Antlist.fold_start f self;
  List.iter (Antlist.fold_add f) ls;
  Antlist.fold_finish f

(* Raw lists over ids 0..9 in every malformed shape [compute] may be
   handed after fault injection: duplicate ids across levels, interior
   empty levels, marked, missing or foreign level-0 entries, marks at any
   depth — plus the empty list and the marked singletons the individual
   checks substitute for rejected senders. *)
let gen_raw_antlist =
  QCheck.Gen.(
    let mark = oneofl [ Mark.Clear; Mark.Clear; Mark.Single; Mark.Double ] in
    let level = list_size (int_range 0 4) (pair (int_range 0 9) mark) in
    frequency
      [
        (8, map Antlist.of_levels (list_size (int_range 1 5) level));
        (1, return Antlist.empty);
        ( 2,
          map2
            (fun id m -> Antlist.singleton_marked id m)
            (int_range 0 9)
            (oneofl [ Mark.Single; Mark.Double ]) );
        (1, map Antlist.singleton (int_range 0 9));
      ])

let prop_one_pass_fold_matches_chain =
  QCheck.Test.make ~name:"one-pass ant fold = List.fold_left ant (singleton self)"
    ~count:2000
    (QCheck.make
       ~print:(fun (self, ls) ->
         Printf.sprintf "self=%d [%s]" self
           (String.concat "; " (List.map Antlist.to_string ls)))
       QCheck.Gen.(pair (int_range 0 9) (list_size (int_range 0 8) gen_raw_antlist)))
    (fun (self, ls) ->
      (* The fold is order-sensitive (each step truncates at its first
         empty level): check the generated order and a reversal. *)
      List.for_all
        (fun ls -> Antlist.equal (fold_one_pass self ls) (fold_chain self ls))
        [ ls; List.rev ls ])

(* --- on-demand queries vs a plain-list reference --- *)

(* Every query answers straight from the level arrays; the reference
   re-derives each one from [levels] by list scans, on arbitrary inputs:
   cross-level duplicates, interior empty levels and deep marks included. *)
let queries_match_reference l =
  let ref_entries =
    List.concat
      (List.mapi
         (fun pos lvl -> List.map (fun e -> (e.Antlist.id, pos, e.Antlist.mark)) lvl)
         (Antlist.levels l))
  in
  let ref_find id =
    List.find_map (fun (v, pos, m) -> if v = id then Some (pos, m) else None) ref_entries
  in
  let set_of p =
    Node_id.Set.of_list
      (List.filter_map (fun (v, _, m) -> if p m then Some v else None) ref_entries)
  in
  let ref_ids = set_of (fun _ -> true) in
  let ref_well_formed =
    List.for_all (fun lvl -> lvl <> []) (Antlist.levels l)
    && List.length ref_entries = Node_id.Set.cardinal ref_ids
    && List.for_all (fun (_, pos, m) -> pos <= 1 || m = Mark.Clear) ref_entries
  in
  let probe id =
    Antlist.find l id = ref_find id
    && Antlist.mem l id = (ref_find id <> None)
    && Antlist.first_level l id
       = (match ref_find id with Some (pos, _) -> pos | None -> -1)
    && Antlist.mem_clear l id
       = List.exists (fun (v, _, m) -> v = id && m = Mark.Clear) ref_entries
  in
  List.for_all probe (List.init 12 (fun i -> i - 1))
  && Node_id.Set.equal (Antlist.ids l) ref_ids
  && Node_id.Set.equal (Antlist.clear_ids l) (set_of (fun m -> m = Mark.Clear))
  && Antlist.entries l = ref_entries
  && Antlist.well_formed l = ref_well_formed

let prop_queries_match_reference =
  QCheck.Test.make ~name:"find/mem/ids/clear_ids/entries/well_formed = list reference"
    ~count:2000
    (QCheck.make ~print:Antlist.to_string
       QCheck.Gen.(
         frequency
           [
             (3, gen_raw_antlist);
             (1, map (fun seed -> Arbitrary.antlist (Rng.create seed)) nat);
             (1, map (fun seed -> Arbitrary.well_formed_antlist (Rng.create seed)) nat);
           ]))
    queries_match_reference

(* The point queries sit on the admission path, once per entry of every
   received list: hits, misses and out-of-range levels allocate nothing,
   and [find] allocates exactly its [Some (pos, mark)] (3 + 2 words). *)
let test_queries_allocate_nothing () =
  let l =
    Antlist.of_levels
      [
        [ (0, Mark.Clear) ];
        [ (1, Mark.Clear); (4, Mark.Single); (7, Mark.Double) ];
        [ (2, Mark.Clear); (4, Mark.Clear); (9, Mark.Clear) ];
      ]
  in
  let hits = ref 0 in
  let w0 = Gc.minor_words () in
  for k = 0 to 999 do
    let id = (k mod 12) - 1 in
    for i = -1 to 3 do
      match Antlist.mark_at l i id with Some _ -> incr hits | None -> ()
    done;
    hits := !hits + Antlist.first_level l id;
    if Antlist.mem_clear l id then incr hits;
    if Antlist.mem l id then incr hits;
    match Antlist.find l (id + 100) with Some _ -> incr hits | None -> ()
  done;
  let delta = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words delta" 0.0 delta;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    match Antlist.find l 4 with Some (pos, _) -> hits := !hits + pos | None -> ()
  done;
  let delta = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "find hit: its result only" 5000.0 delta;
  check "queries ran" true (!hits > 0)

(* Folds reuse the domain's scratch: a large fold followed by a small one
   must not leak slots or level counts into the second. *)
let test_fold_scratch_reuse () =
  let big = List.init 30 (fun i -> of_clear [ [ i + 1 ]; [ i + 2; i + 40 ]; [ i + 80 ] ]) in
  Alcotest.check al "big fold" (fold_chain 0 big) (fold_one_pass 0 big);
  let small = [ of_clear [ [ 5 ]; [ 0; 6 ] ] ] in
  Alcotest.check al "small fold after big" (fold_chain 0 small) (fold_one_pass 0 small);
  Alcotest.check al "no senders" (Antlist.singleton 3) (fold_one_pass 3 [])

(* --- level binary search and sorted-array disjointness --- *)

let test_mark_at () =
  (* 4 sits at levels 1 (Single) and 2 (Clear): [find] reports only the
     first occurrence, the per-level search sees both. *)
  let l =
    Antlist.of_levels
      [
        [ (0, Mark.Clear) ];
        [ (1, Mark.Clear); (4, Mark.Single); (7, Mark.Double) ];
        [ (2, Mark.Clear); (4, Mark.Clear); (9, Mark.Clear) ];
      ]
  in
  let m = Alcotest.(option (testable Mark.pp Mark.equal)) in
  Alcotest.check m "level 1 single" (Some Mark.Single) (Antlist.mark_at l 1 4);
  Alcotest.check m "level 2 clear" (Some Mark.Clear) (Antlist.mark_at l 2 4);
  Alcotest.check m "level 1 double" (Some Mark.Double) (Antlist.mark_at l 1 7);
  Alcotest.check m "first and last of a level" (Some Mark.Clear) (Antlist.mark_at l 2 9);
  Alcotest.check m "absent id" None (Antlist.mark_at l 2 3);
  Alcotest.check m "below the level" None (Antlist.mark_at l 2 0);
  Alcotest.check m "out of range" None (Antlist.mark_at l 5 4);
  Alcotest.check m "negative level" None (Antlist.mark_at l (-1) 0);
  check "find sees only the first occurrence" true
    (Antlist.find l 4 = Some (1, Mark.Single));
  check "mem_clear finds the deeper clear copy" true (Antlist.mem_clear l 4);
  check "mem_clear rejects a marked-only id" false (Antlist.mem_clear l 7);
  check_int "first level" 1 (Antlist.first_level l 4);
  check_int "first level of absent" (-1) (Antlist.first_level l 3);
  check_int "entry count" 7 (Antlist.entry_count l);
  (* Every level of a list with many entries, against a linear scan. *)
  let big = of_clear [ List.init 200 (fun i -> 3 * i) ] in
  for id = -1 to 601 do
    check "binary search agrees with membership"
      (id >= 0 && id < 600 && id mod 3 = 0)
      (Antlist.mark_at big 0 id <> None)
  done

let test_disjoint_sorted () =
  let d = Node_id.disjoint_sorted in
  check "empty/empty" true (d [||] [||]);
  check "empty/any" true (d [||] [| 1; 2 |]);
  check "interleaved disjoint" true (d [| 1; 3; 5 |] [| 0; 2; 4; 6 |]);
  check "shared last" false (d [| 1; 3; 9 |] [| 2; 9 |]);
  check "shared first" false (d [| 0; 5 |] [| 0 |]);
  check "one long, one short" true (d [| 1; 2; 3; 4; 5; 6 |] [| 7 |]);
  Alcotest.(check (array int)) "sorted_of_prefix sorts and dedups" [| 1; 2; 5 |]
    (Node_id.sorted_of_prefix [| 5; 1; 2; 5; 1; 99 |] 5);
  Alcotest.(check (array int)) "empty prefix" [||] (Node_id.sorted_of_prefix [| 3 |] 0)

let prop_disjoint_sorted_matches_set =
  QCheck.Test.make ~name:"disjoint_sorted = Set.disjoint" ~count:500
    QCheck.(pair (small_list (int_range 0 30)) (small_list (int_range 0 30)))
    (fun (a, b) ->
      let arr l = Node_id.sorted_of_prefix (Array.of_list l) (List.length l) in
      Node_id.disjoint_sorted (arr a) (arr b)
      = Node_id.Set.disjoint (Node_id.Set.of_list a) (Node_id.Set.of_list b))

let suite =
  [
    ("singleton", `Quick, test_singleton);
    ("singleton marked", `Quick, test_singleton_marked);
    ("paper merge example", `Quick, test_paper_example);
    ("shift (r endomorphism)", `Quick, test_shift);
    ("ant basic", `Quick, test_ant_basic);
    ("ant dedupe keeps closest", `Quick, test_ant_dedupe_keeps_closest);
    ("ant self dedupe", `Quick, test_ant_self_dedupe);
    ("gap truncation", `Quick, test_gap_truncation);
    ("mark severity in level", `Quick, test_merge_mark_severity);
    ("clear size", `Quick, test_clear_size_ignores_marked_tail);
    ("strip marked", `Quick, test_strip_marked);
    ("strip keeps interior empty", `Quick, test_strip_keeps_interior_empty);
    ("truncate", `Quick, test_truncate);
    ("ids and entries", `Quick, test_ids_and_entries);
    ("well_formed", `Quick, test_well_formed);
    ("restrict_clear", `Quick, test_restrict_clear);
    ("compare/equal", `Quick, test_compare_equal);
    ("one-pass fold reuses scratch", `Quick, test_fold_scratch_reuse);
    ("level binary search", `Quick, test_mark_at);
    ("sorted-array disjointness", `Quick, test_disjoint_sorted);
    ("point queries allocate nothing", `Quick, test_queries_allocate_nothing);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_one_pass_fold_matches_chain;
        prop_queries_match_reference;
        prop_disjoint_sorted_matches_set;
      ]
  @ qcheck_suite @ arbitrary_suite
