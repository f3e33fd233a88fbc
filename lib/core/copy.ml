module Nibble = Hbn_nibble.Nibble

type t = {
  id : int;
  obj : int;
  kappa : int;
  origin : int;
  mutable node : int;
  mutable groups : Nibble.group list;
  mutable served : int;
}

let total_weight groups =
  List.fold_left (fun acc g -> acc + Nibble.group_weight g) 0 groups

let make ~id ~obj ~kappa ~node groups =
  if kappa < 0 then invalid_arg "Copy.make: negative write contention";
  { id; obj; kappa; origin = node; node; groups; served = total_weight groups }

let weight c = c.served + c.kappa

let absorb c ~from =
  c.groups <- List.rev_append from.groups c.groups;
  c.served <- c.served + from.served;
  from.groups <- [];
  from.served <- 0
