(** Domain-safe one-time initialization.

    A [lazy] value is not domain-safe in OCaml 5: a second domain forcing
    it while the first is still computing gets [CamlinternalLazy.Undefined].
    A value a pool task may be the first to reach is either computed
    before the pool starts or obtained through this helper. *)

val make : (unit -> 'a) -> unit -> 'a
(** [make f] is a getter that computes [f ()] on its first call, under a
    mutex, and returns that value on every later call from any domain.
    If [f] raises, the exception propagates and the next call retries. *)
