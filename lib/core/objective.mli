(** Exposed objectives (paper §3.2).

    An objective scores a view of the system — higher is better. The
    view type is abstract here; the engine instantiates it with its
    global-view type, and the runtime instantiates it with the partial
    view reconstructed from collected checkpoints. Weighted sums let a
    deployment prioritise, e.g., tree balance over message count. *)

type 'view t = { name : string; weight : float; score : 'view -> float }

val v : name:string -> ?weight:float -> ('view -> float) -> 'view t
(** [weight] defaults to 1.0 and must be positive. *)

val score : 'view t -> 'view -> float
(** Weighted score of one objective. *)

val total : 'view t list -> 'view -> float
(** Sum of weighted scores; 0 for the empty list. *)

val constrained : 'view t -> penalty:float -> ('view -> bool) -> 'view t
(** [constrained obj ~penalty ok] subtracts [penalty] whenever [ok]
    fails — a soft way to fold a safety predicate into an objective,
    used when ranking futures that contain violations. *)
