type t = {
  probes : int Atomic.t;
  cas_retries : int Atomic.t;
  resizes : int Atomic.t;
  frozen_waits : int Atomic.t;
}

let create () =
  {
    probes = Atomic.make 0;
    cas_retries = Atomic.make 0;
    resizes = Atomic.make 0;
    frozen_waits = Atomic.make 0;
  }
