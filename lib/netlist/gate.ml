type cell_info = {
  cell_name : string;
  tt : Logic.Truth.t;
  arity : int;
  area : float;
  delay : float;
  input_cap : float;
}

type t =
  | Input of int
  | Const of bool
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Cell of cell_info

let arity = function
  | Input _ | Const _ -> Some 0
  | Buf | Not -> Some 1
  | And | Or | Nand | Nor | Xor | Xnor -> None
  | Cell c -> Some c.arity

let check_arity g inputs =
  match arity g with
  | Some a when Array.length inputs <> a ->
      invalid_arg
        (Printf.sprintf "Gate.eval: %d fanins where %d expected"
           (Array.length inputs) a)
  | Some _ -> ()
  | None ->
      if Array.length inputs < 2 then
        invalid_arg "Gate.eval: variadic gate needs >= 2 fanins"

let eval g inputs =
  check_arity g inputs;
  match g with
  | Input _ -> invalid_arg "Gate.eval: Input has no local function"
  | Const b -> b
  | Buf -> inputs.(0)
  | Not -> not inputs.(0)
  | And -> Array.for_all Fun.id inputs
  | Or -> Array.exists Fun.id inputs
  | Nand -> not (Array.for_all Fun.id inputs)
  | Nor -> not (Array.exists Fun.id inputs)
  | Xor -> Array.fold_left (fun acc b -> acc <> b) false inputs
  | Xnor -> not (Array.fold_left (fun acc b -> acc <> b) false inputs)
  | Cell c ->
      let idx = ref 0 in
      Array.iteri (fun i b -> if b then idx := !idx lor (1 lsl i)) inputs;
      Logic.Truth.eval c.tt !idx

(* Word-parallel evaluation: every bit position is an independent
   pattern, and fanin [i]'s word is read in place from
   [words.(fanins.(i))].  [cell_word] is the truth table [tt] over the
   words of the first [i] fanins, expanded by Shannon on the last one;
   equal halves skip that fanin. *)
let rec cell_word words fanins tt i =
  if i = 0 then -(tt land 1)
  else
    let half = 1 lsl (i - 1) in
    let lo = tt land ((1 lsl half) - 1) and hi = tt lsr half in
    if lo = hi then cell_word words fanins lo (i - 1)
    else
      let f0 = cell_word words fanins lo (i - 1) in
      let f1 = cell_word words fanins hi (i - 1) in
      f0 lxor (words.(fanins.(i - 1)) land (f0 lxor f1))

let and_words words fanins =
  let acc = ref (-1) in
  for j = 0 to Array.length fanins - 1 do
    acc := !acc land words.(fanins.(j))
  done;
  !acc

let or_words words fanins =
  let acc = ref 0 in
  for j = 0 to Array.length fanins - 1 do
    acc := !acc lor words.(fanins.(j))
  done;
  !acc

let xor_words words fanins =
  let acc = ref 0 in
  for j = 0 to Array.length fanins - 1 do
    acc := !acc lxor words.(fanins.(j))
  done;
  !acc

let eval_words_at g words fanins =
  match g with
  | Input _ -> invalid_arg "Gate.eval_words_at: Input has no local function"
  | Const b -> if b then -1 else 0
  | Buf -> words.(fanins.(0))
  | Not -> lnot words.(fanins.(0))
  | And -> and_words words fanins
  | Or -> or_words words fanins
  | Nand -> lnot (and_words words fanins)
  | Nor -> lnot (or_words words fanins)
  | Xor -> xor_words words fanins
  | Xnor -> lnot (xor_words words fanins)
  | Cell c -> cell_word words fanins c.tt c.arity

let name = function
  | Input i -> Printf.sprintf "input[%d]" i
  | Const b -> if b then "const1" else "const0"
  | Buf -> "buf"
  | Not -> "not"
  | And -> "and"
  | Or -> "or"
  | Nand -> "nand"
  | Nor -> "nor"
  | Xor -> "xor"
  | Xnor -> "xnor"
  | Cell c -> c.cell_name
