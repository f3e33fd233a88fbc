module Heap = Hbn_util.Heap

let pop_all h =
  let rec go acc =
    match Heap.pop_min h with
    | None -> List.rev acc
    | Some (k, _) -> go (int_of_float k :: acc)
  in
  go []

let test_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "pop of empty" true (Heap.pop_min h = None);
  Heap.add h ~key:1. "a";
  ignore (Heap.pop_min h);
  Alcotest.(check bool) "pop of emptied" true (Heap.pop_min h = None)

let test_ordering () =
  let h = Heap.create () in
  List.iter
    (fun k -> Heap.add h ~key:(float_of_int k) (string_of_int k))
    [ 5; 1; 9; 3; 7; 1 ];
  Alcotest.(check (list int)) "sorted pops" [ 1; 1; 3; 5; 7; 9 ] (pop_all h)

let test_interleaved () =
  let h = Heap.create () in
  Heap.add h ~key:3. 3;
  Heap.add h ~key:1. 1;
  (match Heap.pop_min h with Some (1., 1) -> () | _ -> Alcotest.fail "pop 1");
  Heap.add h ~key:0. 0;
  Heap.add h ~key:2. 2;
  Alcotest.(check (list int)) "rest" [ 0; 2; 3 ] (pop_all h);
  (* Equal keys pop in heap order, not insertion order, and Mapping's
     downward phase relies on that order: the expected pops pin the
     strict sift comparisons. *)
  let h = Heap.create () in
  let add = List.iter (fun (k, v) -> Heap.add h ~key:(float_of_int k) v) in
  let popped = ref [] in
  let pop n =
    for _ = 1 to n do
      Option.iter
        (fun (k, v) -> popped := (int_of_float k, v) :: !popped)
        (Heap.pop_min h)
    done
  in
  add [ (2, 'a'); (1, 'b'); (2, 'c'); (1, 'd'); (2, 'e'); (1, 'f') ];
  pop 2;
  add [ (1, 'g'); (2, 'h'); (0, 'i'); (2, 'j') ];
  pop 1;
  add [ (1, 'k'); (2, 'l') ];
  pop 11;
  Alcotest.(check (list (pair int char)))
    "duplicate keys"
    [
      (1, 'b'); (1, 'd'); (0, 'i'); (1, 'g'); (1, 'k'); (1, 'f');
      (2, 'e'); (2, 'h'); (2, 'c'); (2, 'j'); (2, 'a'); (2, 'l');
    ]
    (List.rev !popped)

let prop_sorted_pops seed =
  let prng = Hbn_prng.Prng.create seed in
  let n = Hbn_prng.Prng.int_in prng 1 200 in
  let keys = List.init n (fun _ -> Hbn_prng.Prng.int_in prng (-50) 50) in
  let h = Heap.create () in
  List.iter (fun k -> Heap.add h ~key:(float_of_int k) k) keys;
  let popped = pop_all h in
  popped = List.sort compare keys

let prop_growth seed =
  (* Exercise resizing across the initial capacity boundary. *)
  let n = 4 + (seed mod 60) in
  let h = Heap.create () in
  for i = n downto 1 do
    Heap.add h ~key:(float_of_int i) i
  done;
  pop_all h = List.init n (fun i -> i + 1)

(* An int array of up to 40 cells and a prefix length to sort: many
   duplicates, negatives, the extreme ints, and prefixes of length 0 and 1
   as often as longer ones. *)
let prefix_arb =
  let open QCheck.Gen in
  let cell =
    frequency
      [ (6, int_range (-8) 8); (2, int); (1, oneofl [ min_int; max_int; 0 ]) ]
  in
  let gen =
    array_size (int_range 0 40) cell >>= fun a ->
    let n = Array.length a in
    map
      (fun len -> (a, len))
      (frequency [ (1, return 0); (1, return (min 1 n)); (4, int_range 0 n) ])
  in
  QCheck.make
    ~print:(fun (a, len) ->
      Printf.sprintf "len %d of [%s]" len
        (String.concat "; " (Array.to_list (Array.map string_of_int a))))
    gen

(* [sort_prefix] sorts exactly the prefix, as [Array.sort compare] does,
   and leaves the tail past [len] as it was. *)
let prop_sort_prefix (a, len) =
  let n = Array.length a in
  let b = Array.copy a in
  Heap.sort_prefix b len;
  let expected = Array.sub a 0 len in
  Array.sort compare expected;
  Array.sub b 0 len = expected
  && Array.sub b len (n - len) = Array.sub a len (n - len)

let suite =
  [
    Helpers.tc "empty heap" test_empty;
    Helpers.tc "pops come out sorted" test_ordering;
    Helpers.tc "interleaved add/pop" test_interleaved;
    Helpers.qt "random keys pop sorted" Helpers.seed_arb prop_sorted_pops;
    Helpers.qt "capacity growth" Helpers.seed_arb prop_growth;
    Helpers.qt ~count:300 "sort_prefix = Array.sort on the prefix" prefix_arb
      prop_sort_prefix;
  ]
