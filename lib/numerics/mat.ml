type t = { rows : int; cols : int; data : float array }

let make rows cols x =
  assert (rows >= 0 && cols >= 0);
  { rows; cols; data = Array.make (rows * cols) x }

let init rows cols f =
  { rows; cols; data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let zeros rows cols = make rows cols 0.0

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let diag v =
  let n = Array.length v in
  init n n (fun i j -> if i = j then v.(i) else 0.0)

let of_rows rows =
  let r = Array.length rows in
  assert (r > 0);
  let c = Array.length rows.(0) in
  Array.iter (fun row -> assert (Array.length row = c)) rows;
  init r c (fun i j -> rows.(i).(j))

let of_cols cols =
  let c = Array.length cols in
  assert (c > 0);
  let r = Array.length cols.(0) in
  Array.iter (fun col -> assert (Array.length col = r)) cols;
  init r c (fun i j -> cols.(j).(i))

let copy m = { m with data = Array.copy m.data }

let get m i j = m.data.((i * m.cols) + j)
let set m i j x = m.data.((i * m.cols) + j) <- x
let dims m = (m.rows, m.cols)

let row m i = Array.sub m.data (i * m.cols) m.cols

let col m j = Array.init m.rows (fun i -> get m i j)

let set_row m i v =
  assert (Array.length v = m.cols);
  Array.blit v 0 m.data (i * m.cols) m.cols

let set_col m j v =
  assert (Array.length v = m.rows);
  for i = 0 to m.rows - 1 do
    set m i j v.(i)
  done

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let add a b =
  assert (a.rows = b.rows && a.cols = b.cols);
  { a with data = Array.mapi (fun k x -> x +. b.data.(k)) a.data }

let sub a b =
  assert (a.rows = b.rows && a.cols = b.cols);
  { a with data = Array.mapi (fun k x -> x -. b.data.(k)) a.data }

let scale s a = { a with data = Array.map (fun x -> s *. x) a.data }

let matmul a b =
  assert (a.cols = b.rows);
  let c = zeros a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if not (Float.equal aik 0.0) then begin
        let arow = i * b.cols and brow = k * b.cols in
        for j = 0 to b.cols - 1 do
          c.data.(arow + j) <- c.data.(arow + j) +. (aik *. b.data.(brow + j))
        done
      end
    done
  done;
  c

(* Four rows at a time: four independent accumulator chains share each
   load of x_j. Every row still sums a_ij·x_j over j ascending from +0.0,
   so the bits match the one-row loop, which takes the leftover rows. *)
let mv_into a x y =
  assert (a.cols = Array.length x);
  assert (a.rows = Array.length y);
  let ad = a.data and cols = a.cols in
  let i = ref 0 in
  while !i + 4 <= a.rows do
    let i0 = !i in
    let b0 = i0 * cols in
    let b1 = b0 + cols in
    let b2 = b1 + cols in
    let b3 = b2 + cols in
    let y0 = ref 0.0 and y1 = ref 0.0 and y2 = ref 0.0 and y3 = ref 0.0 in
    for j = 0 to cols - 1 do
      let xj = x.(j) in
      y0 := !y0 +. (ad.(b0 + j) *. xj);
      y1 := !y1 +. (ad.(b1 + j) *. xj);
      y2 := !y2 +. (ad.(b2 + j) *. xj);
      y3 := !y3 +. (ad.(b3 + j) *. xj)
    done;
    y.(i0) <- !y0;
    y.(i0 + 1) <- !y1;
    y.(i0 + 2) <- !y2;
    y.(i0 + 3) <- !y3;
    i := i0 + 4
  done;
  for i = !i to a.rows - 1 do
    let acc = ref 0.0 in
    let base = i * cols in
    for j = 0 to cols - 1 do
      acc := !acc +. (ad.(base + j) *. x.(j))
    done;
    y.(i) <- !acc
  done

let mv a x =
  let y = Array.make a.rows 0.0 in
  mv_into a x y;
  y

(* Six columns at a time, rows inner: each y_j sums a_ij·x_i over i
   ascending from +0.0, skipping x_i = 0, in a register instead of a load
   and a store per row. A width that is not a multiple of six ends with a
   block shifted back to finish at the last column; the columns it shares
   with the previous block are recomputed to the same bits. Narrower
   matrices take the row-outer loop, a load and a store of y_j per
   multiply-add, in the same order. *)
let tmv_into a x y =
  assert (a.rows = Array.length x);
  assert (a.cols = Array.length y);
  let ad = a.data and cols = a.cols in
  if cols < 6 then begin
    Array.fill y 0 cols 0.0;
    for i = 0 to a.rows - 1 do
      let base = i * cols in
      let xi = x.(i) in
      if not (Float.equal xi 0.0) then
        for j = 0 to cols - 1 do
          y.(j) <- y.(j) +. (ad.(base + j) *. xi)
        done
    done
  end
  else begin
    let j = ref 0 in
    while !j < cols do
      let j0 = if !j + 6 > cols then cols - 6 else !j in
      let y0 = ref 0.0 and y1 = ref 0.0 and y2 = ref 0.0 in
      let y3 = ref 0.0 and y4 = ref 0.0 and y5 = ref 0.0 in
      for i = 0 to a.rows - 1 do
        let xi = x.(i) in
        if not (Float.equal xi 0.0) then begin
          let b = (i * cols) + j0 in
          y0 := !y0 +. (ad.(b) *. xi);
          y1 := !y1 +. (ad.(b + 1) *. xi);
          y2 := !y2 +. (ad.(b + 2) *. xi);
          y3 := !y3 +. (ad.(b + 3) *. xi);
          y4 := !y4 +. (ad.(b + 4) *. xi);
          y5 := !y5 +. (ad.(b + 5) *. xi)
        end
      done;
      y.(j0) <- !y0;
      y.(j0 + 1) <- !y1;
      y.(j0 + 2) <- !y2;
      y.(j0 + 3) <- !y3;
      y.(j0 + 4) <- !y4;
      y.(j0 + 5) <- !y5;
      j := j0 + 6
    done
  end

let tmv a x =
  let y = Array.make a.cols 0.0 in
  tmv_into a x y;
  y

let gram a =
  let g = zeros a.cols a.cols in
  for i = 0 to a.rows - 1 do
    let base = i * a.cols in
    for j = 0 to a.cols - 1 do
      let aij = a.data.(base + j) in
      if not (Float.equal aij 0.0) then
        for k = j to a.cols - 1 do
          let v = get g j k +. (aij *. a.data.(base + k)) in
          set g j k v
        done
    done
  done;
  (* Mirror the upper triangle. *)
  for j = 0 to a.cols - 1 do
    for k = 0 to j - 1 do
      set g j k (get g k j)
    done
  done;
  g

let map f a = { a with data = Array.map f a.data }

let trace m =
  assert (m.rows = m.cols);
  let acc = ref 0.0 in
  for i = 0 to m.rows - 1 do
    acc := !acc +. get m i i
  done;
  !acc

let frobenius m = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 m.data)

let max_abs m = Vec.norm_inf m.data

let is_symmetric ?(tol = 1e-9) m =
  m.rows = m.cols
  && begin
       let ok = ref true in
       for i = 0 to m.rows - 1 do
         for j = i + 1 to m.cols - 1 do
           if Float.abs (get m i j -. get m j i) > tol then ok := false
         done
       done;
       !ok
     end

let hcat a b =
  assert (a.rows = b.rows);
  init a.rows (a.cols + b.cols) (fun i j ->
      if j < a.cols then get a i j else get b i (j - a.cols))

let vcat a b =
  assert (a.cols = b.cols);
  init (a.rows + b.rows) a.cols (fun i j ->
      if i < a.rows then get a i j else get b (i - a.rows) j)

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && begin
       let ok = ref true in
       Array.iteri (fun k x -> if Float.abs (x -. b.data.(k)) > tol then ok := false) a.data;
       !ok
     end

let pp fmt m =
  for i = 0 to m.rows - 1 do
    (* lint: allow R12 -- pp writes only to the caller-supplied formatter; it
       is the debug printer for test output, not a kernel *)
    Format.fprintf fmt "[";
    for j = 0 to m.cols - 1 do
      Format.fprintf fmt "%s%10.4g" (if j = 0 then "" else " ") (get m i j)
    done;
    Format.fprintf fmt "]@\n"
  done
