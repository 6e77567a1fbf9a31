let make f =
  let lock = Mutex.create () in
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some v -> v
    | None ->
        Mutex.lock lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock lock)
          (fun () ->
            match Atomic.get cell with
            | Some v -> v
            | None ->
                let v = f () in
                Atomic.set cell (Some v);
                v)
