(** Tunables of the CrystalBall-enabled runtime. *)

type t = {
  checkpoint_period : float;
      (** virtual seconds between checkpoint collections (paper: the
          controller "periodically collects a consistent set of
          checkpoints") *)
  checkpoint_delay : float;
      (** emulated collection latency: a checkpoint of time [t] becomes
          usable at [t + checkpoint_delay], modelling the network round
          trips the real controller pays *)
  steer_period : float;  (** how often consequence prediction runs *)
  steer_depth : int;  (** exploration depth for steering *)
  max_worlds : int;  (** exploration budget per steering round *)
  filter_ttl : float;  (** seconds an installed event filter lives *)
}

let default =
  {
    checkpoint_period = 1.0;
    checkpoint_delay = 0.2;
    steer_period = 1.0;
    steer_depth = 3;
    max_worlds = 5_000;
    filter_ttl = 5.0;
  }

let validate t =
  if t.checkpoint_period <= 0. then invalid_arg "Config: checkpoint_period must be positive";
  if t.checkpoint_delay < 0. then invalid_arg "Config: checkpoint_delay must be non-negative";
  if t.steer_period <= 0. then invalid_arg "Config: steer_period must be positive";
  if t.steer_depth < 0 then invalid_arg "Config: steer_depth must be non-negative";
  if t.max_worlds <= 0 then invalid_arg "Config: max_worlds must be positive";
  if t.filter_ttl <= 0. then invalid_arg "Config: filter_ttl must be positive";
  t
