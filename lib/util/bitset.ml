(* Element [i] is bit [i mod bpw] of word [i / bpw]. Bits at or past [n]
   in the last word are always zero, so whole-word comparisons ([equal],
   [is_empty], [disjoint]) and [count] need no masking. Every operation
   below preserves that: [add] is bounds-checked, the binary operations
   combine words that are both zero there, and [full] masks the last
   word. *)
type t = { words : int array; n : int }

let bpw = Sys.int_size

let words_for n = (n + bpw - 1) / bpw

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative width";
  { words = Array.make (words_for n) 0; n }

let width s = s.n

let check s i =
  if i < 0 || i >= s.n then
    invalid_arg (Printf.sprintf "Bitset: element %d out of universe [0,%d)" i s.n)

let mem s i =
  check s i;
  Array.unsafe_get s.words (i / bpw) land (1 lsl (i mod bpw)) <> 0

let add s i =
  check s i;
  let w = i / bpw in
  Array.unsafe_set s.words w (Array.unsafe_get s.words w lor (1 lsl (i mod bpw)))

let remove s i =
  check s i;
  let w = i / bpw in
  Array.unsafe_set s.words w (Array.unsafe_get s.words w land lnot (1 lsl (i mod bpw)))

let copy s = { words = Array.copy s.words; n = s.n }

let equal a b =
  a.n = b.n
  &&
  let i = ref 0 and len = Array.length a.words in
  while !i < len && Array.unsafe_get a.words !i = Array.unsafe_get b.words !i do
    incr i
  done;
  !i = len

let is_empty s =
  let i = ref 0 and len = Array.length s.words in
  while !i < len && Array.unsafe_get s.words !i = 0 do
    incr i
  done;
  !i = len

let full n =
  let s = create n in
  Array.fill s.words 0 (Array.length s.words) (-1);
  let rem = n mod bpw in
  if rem <> 0 then s.words.(Array.length s.words - 1) <- (1 lsl rem) - 1;
  s

let same_width a b =
  if a.n <> b.n then invalid_arg "Bitset: width mismatch"

let disjoint a b =
  same_width a b;
  let i = ref 0 and len = Array.length a.words in
  while !i < len && Array.unsafe_get a.words !i land Array.unsafe_get b.words !i = 0 do
    incr i
  done;
  !i = len

(* The three word loops are written out: one loop over a function
   argument would make an indirect call per word. *)
let union_into ~dst src =
  same_width dst src;
  let d = dst.words and s = src.words in
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (Array.unsafe_get d i lor Array.unsafe_get s i)
  done

let inter_into ~dst src =
  same_width dst src;
  let d = dst.words and s = src.words in
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (Array.unsafe_get d i land Array.unsafe_get s i)
  done

let diff_into ~dst src =
  same_width dst src;
  let d = dst.words and s = src.words in
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (Array.unsafe_get d i land lnot (Array.unsafe_get s i))
  done

let assign ~dst src =
  same_width dst src;
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let clear s = Array.fill s.words 0 (Array.length s.words) 0

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let count s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

let iter f s =
  for k = 0 to Array.length s.words - 1 do
    let w = ref (Array.unsafe_get s.words k) and i = ref (k * bpw) in
    while !w <> 0 do
      if !w land 1 <> 0 then f !i;
      w := !w lsr 1;
      incr i
    done
  done

let elements s =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) s;
  List.rev !acc

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc
