(** Network topologies mapping endpoint pairs to path properties.

    Endpoints are dense integers [0 .. size-1]; the engine assigns one
    endpoint per node. A topology is immutable; dynamic conditions
    (degraded links, partitions) are layered on by {!Netem}. *)

type t

val size : t -> int

val path : t -> int -> int -> Linkprop.t
(** [path t a b] is the end-to-end property from [a] to [b]. The path
    from a node to itself is {!Linkprop.ideal}.
    @raise Invalid_argument if an endpoint is out of range. *)

val uniform : n:int -> Linkprop.t -> t
(** Full mesh in which every distinct pair shares the same property. *)

val of_matrix : Linkprop.t array array -> t
(** Explicit matrix; must be square.
    @raise Invalid_argument otherwise. *)

val star : n:int -> hub_spoke:Linkprop.t -> t
(** Endpoint 0 is the hub; spoke-to-spoke paths relay through it. *)

val random_waxman :
  rng:Dsim.Rng.t ->
  n:int ->
  ?alpha:float ->
  ?beta:float ->
  ?base_latency:float ->
  ?bandwidth:float ->
  ?loss:float ->
  unit ->
  t
(** Waxman random graph on a unit square: edge probability decays with
    Euclidean distance; path properties come from shortest (latency)
    paths. Disconnected pairs are patched with a direct high-latency
    link so that [path] is total. *)

(** Parameters for the two-level transit–stub topology used as the
    "Internet-like" ModelNet substitute. *)
type transit_stub_params = {
  transits : int;  (** transit (backbone) domains arranged in a ring *)
  stubs_per_transit : int;
  clients_per_stub : int;
  client_stub_latency : float;  (** client access one-way delay, seconds *)
  stub_transit_latency : float;
  transit_transit_latency : float;
  client_bandwidth : float;  (** access bandwidth, bytes/second *)
  core_bandwidth : float;
  loss : float;  (** per-access-link loss probability *)
}

val default_transit_stub : transit_stub_params

val transit_stub : ?jitter_rng:Dsim.Rng.t -> transit_stub_params -> t
(** Builds a transit–stub topology with
    [transits * stubs_per_transit * clients_per_stub] endpoints. When
    [jitter_rng] is given, each latency component is perturbed by up to
    ±20% so distinct pairs differ, as on a real WAN. Each pair's path
    is computed on its first use and kept, in rows allocated as pairs
    are used; nothing is computed for pairs never asked for. *)

val stub_of : transit_stub_params -> int -> int
(** [stub_of params endpoint] is the index of the stub domain the
    endpoint lives in — useful for failing whole subtrees by locality. *)

val degrade : t -> (int -> int -> Linkprop.t -> Linkprop.t) -> t
(** [degrade t f] derives a topology with every path rewritten by [f];
    used e.g. to slow down all paths touching one endpoint. *)
