type 'a entry = { key : float; value : 'a }

type 'a t = { mutable data : 'a entry array; mutable size : int }

let create () = { data = [||]; size = 0 }

let swap h i j =
  let a = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- a

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.data.(i).key < h.data.(parent).key then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && h.data.(l).key < h.data.(!smallest).key then smallest := l;
  if r < h.size && h.data.(r).key < h.data.(!smallest).key then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let add h ~key value =
  let entry = { key; value } in
  let cap = Array.length h.data in
  if cap = 0 then h.data <- Array.make 4 entry
  else if h.size >= cap then begin
    let fresh = Array.make (2 * cap) entry in
    Array.blit h.data 0 fresh 0 h.size;
    h.data <- fresh
  end;
  h.data.(h.size) <- entry;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let pop_min h =
  if h.size = 0 then None
  else begin
    let e = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    Some (e.key, e.value)
  end

(* Sifts [a.(i)] down the max-heap [a.(0 .. len - 1)]. *)
let rec sift_ints (a : int array) len i =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift_ints a len c
    end
  end

let sort_prefix (a : int array) len =
  for i = (len / 2) - 1 downto 0 do
    sift_ints a len i
  done;
  for last = len - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift_ints a last 0
  done
