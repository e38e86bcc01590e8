type t = float array

let make n x = Array.make n x
let init n f = Array.init n f
let zeros n = Array.make n 0.0
let ones n = Array.make n 1.0
let copy = Array.copy
let of_list = Array.of_list
let to_list = Array.to_list

let linspace a b n =
  assert (n >= 2);
  let h = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i -> a +. (h *. float_of_int i))

let check2 x y = assert (Array.length x = Array.length y)

let add x y =
  check2 x y;
  Array.mapi (fun i xi -> xi +. y.(i)) x

let sub x y =
  check2 x y;
  Array.mapi (fun i xi -> xi -. y.(i)) x

let scale a x = Array.map (fun xi -> a *. xi) x
let neg x = scale (-1.0) x

let mul x y =
  check2 x y;
  Array.mapi (fun i xi -> xi *. y.(i)) x

let div x y =
  check2 x y;
  Array.mapi (fun i xi -> xi /. y.(i)) x

let axpy a x y =
  check2 x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let dot x y =
  check2 x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let sum x = Array.fold_left ( +. ) 0.0 x

let mean x =
  assert (Array.length x > 0);
  sum x /. float_of_int (Array.length x)

let norm2 x = sqrt (dot x x)

(* A loop rather than a fold: the fold's polymorphic accumulator boxes a
   float per element, and the QP calls this on every iterate. *)
let norm_inf x =
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := Float.max !acc (Float.abs x.(i))
  done;
  !acc

let min x =
  assert (Array.length x > 0);
  Array.fold_left Float.min x.(0) x

let max x =
  assert (Array.length x > 0);
  Array.fold_left Float.max x.(0) x

let argmin x =
  assert (Array.length x > 0);
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if x.(i) < x.(!best) then best := i
  done;
  !best

let argmax x =
  assert (Array.length x > 0);
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if x.(i) > x.(!best) then best := i
  done;
  !best

let map = Array.map
let map2 f x y = check2 x y; Array.mapi (fun i xi -> f xi y.(i)) x
let mapi = Array.mapi

let clamp ~lo ~hi x = Array.map (fun xi -> Float.max lo (Float.min hi xi)) x

let concat = Array.concat

let approx_equal ?(tol = 1e-9) x y =
  Array.length x = Array.length y
  && begin
       let ok = ref true in
       for i = 0 to Array.length x - 1 do
         if Float.abs (x.(i) -. y.(i)) > tol then ok := false
       done;
       !ok
     end

let pp fmt x =
  (* lint: allow R12 -- pp writes only to the caller-supplied formatter; it
     is the debug printer for test output, not a kernel *)
  Format.fprintf fmt "[|";
  Array.iteri (fun i xi -> Format.fprintf fmt "%s%g" (if i = 0 then "" else "; ") xi) x;
  Format.fprintf fmt "|]"
