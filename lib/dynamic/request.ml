module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload
module Prng = Hbn_prng.Prng

type kind = Read | Write

type t = { node : int; kind : kind }

let all_requests w ~obj =
  List.concat_map
    (fun v ->
      List.init (Workload.reads w ~obj v) (fun _ -> { node = v; kind = Read })
      @ List.init (Workload.writes w ~obj v) (fun _ ->
            { node = v; kind = Write }))
    (Workload.requesting_leaves w ~obj)

let of_workload ~prng w ~obj =
  let arr = Array.of_list (all_requests w ~obj) in
  Prng.shuffle prng arr;
  Array.to_list arr

let bursty ~prng w ~obj ~burst =
  if burst < 1 then invalid_arg "Request.bursty: burst must be >= 1";
  (* Per processor, cut its requests into bursts, then shuffle bursts. *)
  let chunks = ref [] in
  List.iter
    (fun v ->
      let mine =
        List.init (Workload.reads w ~obj v) (fun _ -> { node = v; kind = Read })
        @ List.init (Workload.writes w ~obj v) (fun _ ->
              { node = v; kind = Write })
      in
      let mine = Array.of_list mine in
      Prng.shuffle prng mine;
      let n = Array.length mine in
      let i = ref 0 in
      while !i < n do
        let len = min (Prng.int_in prng 1 burst) (n - !i) in
        chunks := Array.to_list (Array.sub mine !i len) :: !chunks;
        i := !i + len
      done)
    (Workload.requesting_leaves w ~obj);
  let chunk_arr = Array.of_list !chunks in
  Prng.shuffle prng chunk_arr;
  List.concat (Array.to_list chunk_arr)

let phases ~prng tree ~readers ~writer ~phase_length ~phases =
  if not (Tree.is_leaf tree writer) then
    invalid_arg "Request.phases: writer must be a processor";
  List.iter
    (fun r ->
      if not (Tree.is_leaf tree r) then
        invalid_arg "Request.phases: readers must be processors")
    readers;
  List.concat
    (List.init phases (fun p ->
         if p mod 2 = 0 then begin
           let reads =
             Array.of_list
               (List.concat_map
                  (fun r ->
                    List.init phase_length (fun _ -> { node = r; kind = Read }))
                  readers)
           in
           Prng.shuffle prng reads;
           Array.to_list reads
         end
         else List.init phase_length (fun _ -> { node = writer; kind = Write })))
