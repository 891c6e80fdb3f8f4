type entry = { id : Node_id.t; mark : Mark.t }

module Itbl = Node_id.Tbl

(* Levels in distance order, each level a sorted-by-id array with unique ids
   within the level (across-level uniqueness is only guaranteed for values
   built by [merge]/[ant], see [well_formed]).  Level arrays are never
   mutated after construction, so suffixes and untouched levels are shared
   freely between values ([merge]/[truncate]/[strip_marked] reuse input
   arrays whenever a pass changes nothing — which is the common case once
   the protocol has stabilized).  A value has no other state, so it can be
   read from any domain. *)
type t = { lvls : entry array array } [@@unboxed]

let empty = { lvls = [||] }
let singleton id = { lvls = [| [| { id; mark = Mark.Clear } |] |] }
let singleton_marked id mark = { lvls = [| [| { id; mark } |] |] }

(* Sort a raw level by id and merge duplicate ids (most severe mark wins). *)
let normalize_level es =
  let a = Array.of_list es in
  Array.sort (fun x y -> Node_id.compare x.id y.id) a;
  let n = Array.length a in
  let rec dups i = i < n - 1 && (Node_id.equal a.(i).id a.(i + 1).id || dups (i + 1)) in
  if not (dups 0) then a
  else begin
    let out = Array.make n a.(0) in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if !k > 0 && Node_id.equal out.(!k - 1).id a.(i).id then
        out.(!k - 1) <- { id = a.(i).id; mark = Mark.max out.(!k - 1).mark a.(i).mark }
      else begin
        out.(!k) <- a.(i);
        incr k
      end
    done;
    Array.sub out 0 !k
  end

let of_levels lvls =
  {
    lvls =
      Array.of_list
        (List.map
           (fun l -> normalize_level (List.map (fun (id, mark) -> { id; mark }) l))
           lvls);
  }

let levels t = Array.to_list (Array.map Array.to_list t.lvls)
let size t = Array.length t.lvls
let is_empty t = Array.length t.lvls = 0

let clear_size t =
  let best = ref 0 in
  Array.iteri
    (fun i l -> if Array.exists (fun e -> e.mark = Mark.Clear) l then best := i + 1)
    t.lvls;
  !best

let level t i =
  if i < 0 || i >= Array.length t.lvls then [] else Array.to_list t.lvls.(i)

let level_ids t i =
  if i < 0 || i >= Array.length t.lvls then Node_id.Set.empty
  else
    Array.fold_left
      (fun acc e -> Node_id.Set.add e.id acc)
      Node_id.Set.empty t.lvls.(i)

let entry_count t = Array.fold_left (fun acc l -> acc + Array.length l) 0 t.lvls

let fold_entries t ~init ~f =
  let acc = ref init in
  let lvls = t.lvls in
  for pos = 0 to Array.length lvls - 1 do
    let l = lvls.(pos) in
    for j = 0 to Array.length l - 1 do
      let e = l.(j) in
      acc := f !acc e.id pos e.mark
    done
  done;
  !acc

let fold_level t i ~init ~f =
  if i < 0 || i >= Array.length t.lvls then init
  else Array.fold_left (fun acc e -> f acc e.id e.mark) init t.lvls.(i)

(* The searches below are top-level recursive functions taking every
   operand explicitly: a local [let rec] closing over the level or the id
   would allocate a closure per call (without flambda), and these run once
   per entry on the admission path. *)

(* Binary search of the sorted level [l] over [lo, hi); the index of [id]
   or -1. *)
let rec search_in l id lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let c = Node_id.compare l.(mid).id id in
    if c = 0 then mid
    else if c < 0 then search_in l id (mid + 1) hi
    else search_in l id lo mid

let search l id = search_in l id 0 (Array.length l)

(* Preallocated results, so [mark_at] never allocates. *)
let some_clear = Some Mark.Clear
let some_single = Some Mark.Single
let some_double = Some Mark.Double

let mark_at t i id =
  if i < 0 || i >= Array.length t.lvls then None
  else
    let l = t.lvls.(i) in
    let j = search l id in
    if j < 0 then None
    else
      match l.(j).mark with
      | Mark.Clear -> some_clear
      | Mark.Single -> some_single
      | Mark.Double -> some_double

let rec mem_clear_from lvls id i =
  i < Array.length lvls
  &&
  let j = search lvls.(i) id in
  (j >= 0 && lvls.(i).(j).mark = Mark.Clear) || mem_clear_from lvls id (i + 1)

let mem_clear t id = mem_clear_from t.lvls id 0

let rec first_level_from lvls id i =
  if i >= Array.length lvls then -1
  else if search lvls.(i) id >= 0 then i
  else first_level_from lvls id (i + 1)

let first_level t id = first_level_from t.lvls id 0
let mem t id = first_level t id >= 0

let find t id =
  let i = first_level t id in
  if i < 0 then None
  else
    let l = t.lvls.(i) in
    Some (i, l.(search l id).mark)

let level_size t i =
  if i < 0 || i >= Array.length t.lvls then 0 else Array.length t.lvls.(i)

let ids t =
  fold_entries t ~init:Node_id.Set.empty ~f:(fun acc id _ _ -> Node_id.Set.add id acc)

let clear_ids t =
  fold_entries t ~init:Node_id.Set.empty ~f:(fun acc id _ mark ->
      if mark = Mark.Clear then Node_id.Set.add id acc else acc)

let entries t =
  List.rev (fold_entries t ~init:[] ~f:(fun acc id pos mark -> (id, pos, mark) :: acc))

(* Filter a level in one pass, sharing the input array when nothing is
   dropped.  The keep-set fits an int bitmask for every level the protocol
   actually produces (inline up to 62 entries); the boxed bool array only
   appears on the synthetic giant levels of the scalability workloads.
   The predicate may be stateful (merge's first-occurrence check), so it
   is called exactly once per element in index order. *)
let filter_level p l =
  let n = Array.length l in
  if n = 0 then l
  else if n <= 62 then begin
    let mask = ref 0 in
    let kept = ref 0 in
    for j = 0 to n - 1 do
      if p l.(j) then begin
        mask := !mask lor (1 lsl j);
        incr kept
      end
    done;
    if !kept = n then l
    else if !kept = 0 then [||]
    else begin
      let out = Array.make !kept l.(0) in
      let k = ref 0 in
      for j = 0 to n - 1 do
        if !mask land (1 lsl j) <> 0 then begin
          out.(!k) <- l.(j);
          incr k
        end
      done;
      out
    end
  end
  else begin
    let kept = ref 0 in
    let keep = Array.make n false in
    for j = 0 to n - 1 do
      if p l.(j) then begin
        keep.(j) <- true;
        incr kept
      end
    done;
    if !kept = n then l
    else if !kept = 0 then [||]
    else begin
      let out = Array.make !kept l.(0) in
      let k = ref 0 in
      for j = 0 to n - 1 do
        if keep.(j) then begin
          out.(!k) <- l.(j);
          incr k
        end
      done;
      out
    end
  end

let strip_marked ~keep t =
  let lvls' =
    Array.map
      (filter_level (fun e -> e.mark = Mark.Clear || Node_id.equal e.id keep))
      t.lvls
  in
  let n = ref (Array.length lvls') in
  while !n > 0 && Array.length lvls'.(!n - 1) = 0 do
    decr n
  done;
  let unchanged = ref (!n = Array.length t.lvls) in
  if !unchanged then
    Array.iteri (fun i l -> if l != t.lvls.(i) then unchanged := false) lvls';
  if !unchanged then t else { lvls = Array.sub lvls' 0 !n }

let has_empty_level t = Array.exists (fun l -> Array.length l = 0) t.lvls

(* The [⊕] operator: union the levels positionwise, then keep only the
   first occurrence of every id, walking levels in distance order.  A level
   emptied by the deduplication means every node that supported it is in
   fact closer, so the distance claims of the deeper levels are unreliable:
   the list is truncated at the gap (they re-derive from better-placed
   information on later computes).  Compacting the gap instead would
   understate distances and leak nodes across rejected boundaries
   (DESIGN.md Section 5).

   [off] shifts [b]'s levels [off] positions deeper without materializing
   the shift: [merge_off 1 a b] is [a ⊕ r(b)], the [ant] fold step, minus
   one array copy per application.

   [compute] folds with the one-pass folder below instead; [merge] and
   [ant] are the paper's operators and the reference the folder is tested
   against. *)
let merge_off off a b =
  let la = a.lvls and lb = b.lvls in
  let na = Array.length la and nb = Array.length lb in
  let n = max na (if nb = 0 then 0 else nb + off) in
  let seen = Itbl.create (entry_count a + entry_count b) in
  let fresh id =
    if Itbl.mem seen id then false
    else begin
      Itbl.replace seen id ();
      true
    end
  in
  let pred e = fresh e.id in
  (* Overlapping levels fuse the positionwise union with the
     first-occurrence filter in the one two-pointer pass: the separate
     union array the historical code built was immediately consumed by the
     filter and thrown away, one allocation per level per merge on the ant
     fold's hottest path.  The predicate sees the same merged entries in
     the same order as the two-pass version, which is what keeps the
     stateful first-occurrence check equivalent. *)
  let union_filter a b =
    let ka = Array.length a and kb = Array.length b in
    let out = Array.make (ka + kb) a.(0) in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    let push e =
      if pred e then begin
        out.(!k) <- e;
        incr k
      end
    in
    while !i < ka && !j < kb do
      let ea = a.(!i) and eb = b.(!j) in
      let c = Node_id.compare ea.id eb.id in
      if c < 0 then begin
        push ea;
        incr i
      end
      else if c > 0 then begin
        push eb;
        incr j
      end
      else begin
        push { id = ea.id; mark = Mark.max ea.mark eb.mark };
        incr i;
        incr j
      end
    done;
    while !i < ka do
      push a.(!i);
      incr i
    done;
    while !j < kb do
      push b.(!j);
      incr j
    done;
    if !k = ka + kb then out else Array.sub out 0 !k
  in
  let out = ref [] in
  let levels_out = ref 0 in
  (try
     for i = 0 to n - 1 do
       let bi = i - off in
       let l' =
         if i >= na then
           if bi >= 0 && bi < nb then filter_level pred lb.(bi) else [||]
         else if bi < 0 || bi >= nb then filter_level pred la.(i)
         else if Array.length la.(i) = 0 then filter_level pred lb.(bi)
         else if Array.length lb.(bi) = 0 then filter_level pred la.(i)
         else union_filter la.(i) lb.(bi)
       in
       if Array.length l' = 0 then raise Exit;
       out := l' :: !out;
       incr levels_out
     done
   with Exit -> ());
  let arr = Array.make !levels_out [||] in
  List.iteri (fun i l -> arr.(!levels_out - 1 - i) <- l) !out;
  { lvls = arr }

let merge a b = merge_off 0 a b

let shift t =
  if Array.length t.lvls = 0 then t else { lvls = Array.append [| [||] |] t.lvls }

let ant l1 l2 = merge_off 1 l1 l2

(* The one-pass ant fold.  [fold_add] applies [acc := ant acc l] to an
   accumulator kept as id -> (level, entry) slots instead of a list, so a
   fold over k neighbor lists builds one result instead of k intermediate
   ones.  The chain's semantics carry over exactly: an id lands at its
   minimum level (the first-occurrence filter walks levels in order); an
   id the accumulator and [l] hold at the same level takes the most severe
   mark (the positionwise union); and after each list the accumulator is
   cut at its first empty level (a level emptied by the deduplication
   truncates [merge]).  An id of [l] already present at a level no deeper
   than its shifted one is dropped — that covers both the accumulator's
   closer entries and [l]'s own duplicates across levels, because [l]'s
   levels are visited in order and an id is unique within a level.

   Slots are appended and never reused within a fold: a truncation marks
   the cut slots dead (level -1) and forgets their ids, and a later list
   re-adding such an id gets a fresh slot.  The scratch is cleared, not
   re-created, per fold and grows only to the largest fold seen, so it is
   sized by neighbourhood list sizes.  One folder per domain
   ([Domain.DLS]): folds never nest, and sharded runs fold on several
   domains at once. *)
type folder = {
  slot_of : int Itbl.t;  (* live id -> slot *)
  mutable slot_lvl : int array;  (* level of the slot, -1 when cut *)
  mutable slot_e : entry array;  (* the entry (id and mark) of the slot *)
  mutable slots : int;
  mutable cnt : int array;  (* live slots per level; 0 at and past [nlev] *)
  mutable nlev : int;
}

let dummy = { id = 0; mark = Mark.Clear }

let new_folder () =
  {
    slot_of = Itbl.create 64;
    slot_lvl = Array.make 64 0;
    slot_e = Array.make 64 dummy;
    slots = 0;
    cnt = Array.make 8 0;
    nlev = 0;
  }

let folder_key = Domain.DLS.new_key new_folder
let folder () = Domain.DLS.get folder_key

let add_slot f e lvl =
  let cap = Array.length f.slot_lvl in
  if f.slots = cap then begin
    let lv = Array.make (2 * cap) 0 and es = Array.make (2 * cap) dummy in
    Array.blit f.slot_lvl 0 lv 0 cap;
    Array.blit f.slot_e 0 es 0 cap;
    f.slot_lvl <- lv;
    f.slot_e <- es
  end;
  let s = f.slots in
  f.slot_lvl.(s) <- lvl;
  f.slot_e.(s) <- e;
  f.slots <- s + 1;
  Itbl.replace f.slot_of e.id s;
  f.cnt.(lvl) <- f.cnt.(lvl) + 1

let fold_start f self =
  Itbl.clear f.slot_of;
  Array.fill f.cnt 0 f.nlev 0;
  f.slots <- 0;
  f.nlev <- 1;
  add_slot f { id = self; mark = Mark.Clear } 0

let fold_add f b =
  let lb = b.lvls in
  let nb = Array.length lb in
  if nb > 0 then begin
    let n = max f.nlev (nb + 1) in
    if n > Array.length f.cnt then begin
      let c = Array.make (max n (2 * Array.length f.cnt)) 0 in
      Array.blit f.cnt 0 c 0 f.nlev;
      f.cnt <- c
    end;
    for j = 0 to nb - 1 do
      let lvl = j + 1 in
      let l = lb.(j) in
      for k = 0 to Array.length l - 1 do
        let e = l.(k) in
        match Itbl.find f.slot_of e.id with
        | s ->
            let sl = f.slot_lvl.(s) in
            if sl = lvl then begin
              (* [Mark.max] returns one of its arguments: when it is not
                 the current mark, [e] itself is the merged entry. *)
              let cur = f.slot_e.(s) in
              if Mark.max cur.mark e.mark != cur.mark then f.slot_e.(s) <- e
            end
            else if sl > lvl then begin
              f.cnt.(sl) <- f.cnt.(sl) - 1;
              f.cnt.(lvl) <- f.cnt.(lvl) + 1;
              f.slot_lvl.(s) <- lvl;
              f.slot_e.(s) <- e
            end
        | exception Not_found -> add_slot f e lvl
      done
    done;
    let cut = ref n in
    for i = n - 1 downto 0 do
      if f.cnt.(i) = 0 then cut := i
    done;
    let cut = !cut in
    if cut < n then
      for s = 0 to f.slots - 1 do
        if f.slot_lvl.(s) >= cut then begin
          Itbl.remove f.slot_of f.slot_e.(s).id;
          f.slot_lvl.(s) <- -1
        end
      done;
    Array.fill f.cnt cut (n - cut) 0;
    f.nlev <- cut
  end

(* In-place insertion sort by id: output levels are a handful of entries,
   where it beats the generic heap sort; the heap sort takes the rare
   large level. *)
let sort_level l =
  let n = Array.length l in
  if n > 32 then Array.sort (fun x y -> Node_id.compare x.id y.id) l
  else
    for i = 1 to n - 1 do
      let e = l.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && Node_id.compare l.(!j).id e.id > 0 do
        l.(!j + 1) <- l.(!j);
        decr j
      done;
      l.(!j + 1) <- e
    done

let fold_finish f =
  let nlev = f.nlev in
  let lvls = Array.init nlev (fun i -> Array.make f.cnt.(i) dummy) in
  (* [cnt] doubles as the fill cursor, counting back down to 0 — which
     also restores the cleared-past-[nlev] invariant for the next fold. *)
  for s = 0 to f.slots - 1 do
    let lvl = f.slot_lvl.(s) in
    if lvl >= 0 then begin
      let c = f.cnt.(lvl) - 1 in
      lvls.(lvl).(c) <- f.slot_e.(s);
      f.cnt.(lvl) <- c
    end
  done;
  f.nlev <- 0;
  Array.iter sort_level lvls;
  { lvls }

let truncate t k =
  let n = Array.length t.lvls in
  if k = 0 then empty else if k < 0 || k >= n then t else { lvls = Array.sub t.lvls 0 k }

(* Drop all marked entries AND compact every level that ends up (or was)
   empty, in one fused pass — the historical implementation filtered each
   level and then traversed again to compact, allocating a closure per
   call. *)
let restrict_clear t =
  let out = ref [] in
  let kept_levels = ref 0 in
  let changed = ref false in
  Array.iter
    (fun l ->
      let l' = filter_level (fun e -> e.mark = Mark.Clear) l in
      if l' != l then changed := true;
      if Array.length l' = 0 then changed := true
      else begin
        out := l' :: !out;
        incr kept_levels
      end)
    t.lvls;
  if not !changed then t
  else begin
    let arr = Array.make !kept_levels [||] in
    List.iteri (fun i l -> arr.(!kept_levels - 1 - i) <- l) !out;
    { lvls = arr }
  end

(* Ids are unique across levels iff every entry is its id's first
   occurrence (ids are unique within a level by construction). *)
let well_formed t =
  (not (has_empty_level t))
  && fold_entries t ~init:true ~f:(fun ok id pos mark ->
         ok && first_level t id = pos && (pos <= 1 || mark = Mark.Clear))

(* Same order as [Stdlib.compare] over the historical
   list-of-levels-of-(id, mark) key: levels lexicographically, entries
   within a level lexicographically, a missing level/entry sorting first.
   Marks compare by severity, which is their constructor order. *)
let compare a b =
  if a == b then 0
  else begin
    let la = a.lvls and lb = b.lvls in
    let na = Array.length la and nb = Array.length lb in
    let rec go_level i =
      if i >= na && i >= nb then 0
      else if i >= na then -1
      else if i >= nb then 1
      else begin
        let l1 = la.(i) and l2 = lb.(i) in
        let m1 = Array.length l1 and m2 = Array.length l2 in
        let rec go_entry j =
          if j >= m1 && j >= m2 then go_level (i + 1)
          else if j >= m1 then -1
          else if j >= m2 then 1
          else begin
            let e1 = l1.(j) and e2 = l2.(j) in
            let c =
              if e1 == e2 then 0
              else
                match Node_id.compare e1.id e2.id with
                | 0 -> Mark.compare e1.mark e2.mark
                | c -> c
            in
            if c <> 0 then c else go_entry (j + 1)
          end
        in
        go_entry 0
      end
    in
    go_level 0
  end

let equal a b = compare a b = 0

let pp ppf t =
  let pp_entry ppf e = Format.fprintf ppf "%a%a" Node_id.pp e.id Mark.pp e.mark in
  let pp_level ppf l =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") pp_entry)
      l
  in
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") pp_level)
    (levels t)

let to_string t = Format.asprintf "%a" pp t
