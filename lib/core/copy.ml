module Nibble = Hbn_nibble.Nibble

type t = {
  id : int;
  obj : int;
  kappa : int;
  origin : int;
  mutable node : int;
  groups : Nibble.group list;
  served : int;
}

let total_weight groups =
  List.fold_left (fun acc g -> acc + Nibble.group_weight g) 0 groups

let make ~id ~obj ~kappa ~node groups =
  if kappa < 0 then invalid_arg "Copy.make: negative write contention";
  { id; obj; kappa; origin = node; node; groups; served = total_weight groups }

let weight c = c.served + c.kappa
