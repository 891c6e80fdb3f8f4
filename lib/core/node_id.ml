type t = int

let compare = Int.compare
let equal = Int.equal
let pp = Format.pp_print_int

module Set = Dgs_util.Int_set
module Map = Map.Make (Int)

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

let set_of_list l = Set.of_list l

let pp_set ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") pp)
    (Set.elements s)

let sorted_of_prefix buf n =
  if n = 0 then [||]
  else begin
    let a = Array.sub buf 0 n in
    Array.sort Int.compare a;
    let k = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!k - 1) then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    if !k = n then a else Array.sub a 0 !k
  end

let disjoint_sorted a b =
  let na = Array.length a and nb = Array.length b in
  let rec go i j =
    i >= na || j >= nb
    ||
    let c = Int.compare a.(i) b.(j) in
    c <> 0 && if c < 0 then go (i + 1) j else go i (j + 1)
  in
  go 0 0

let mem_sorted a v =
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) lsr 1 in
    let c = Int.compare a.(mid) v in
    c = 0 || if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)
