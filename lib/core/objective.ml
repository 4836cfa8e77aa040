type 'view t = { name : string; weight : float; score : 'view -> float }

let v ~name ?(weight = 1.0) score =
  if weight <= 0. then invalid_arg "Objective.v: weight must be positive";
  { name; weight; score }

let score t view = t.weight *. t.score view
let total ts view = List.fold_left (fun acc t -> acc +. score t view) 0. ts

let constrained t ~penalty ok =
  {
    t with
    name = t.name ^ "+constraint";
    score = (fun view -> (if ok view then 0. else -.penalty) +. t.score view);
  }
