(* A handled signal reaching a thread blocked in [Frame.read] makes
   read(2) fail with EINTR; the codec must read on.  This runs as a
   process of its own, so that its only threads are the main one, the
   reader and runtime threads that block every signal: with SIGUSR2
   blocked in the main thread, the kernel hands it to the reader.  (In a
   process with worker domains the signal could go to one of those
   instead.)  Exits 0 when the read returned the line written after the
   signal, 1 with the reason on stderr otherwise. *)

module Frame = Amg_serve.Frame

let () =
  let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let handled = Atomic.make 0 in
  Sys.set_signal Sys.sigusr2 (Sys.Signal_handle (fun _ -> Atomic.incr handled));
  let result = ref (Error "never read") in
  let reader =
    Thread.create
      (fun () ->
        result :=
          try Ok (Frame.read (Frame.reader r))
          with e -> Error (Printexc.to_string e))
      ()
  in
  ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigusr2 ]);
  (* let the reader block in read(2) first *)
  Thread.delay 0.1;
  Unix.kill (Unix.getpid ()) Sys.sigusr2;
  let deadline = Unix.gettimeofday () +. 10. in
  while Atomic.get handled = 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Frame.write w "after the signal\n";
  Thread.join reader;
  let fail msg =
    prerr_endline msg;
    exit 1
  in
  if Atomic.get handled = 0 then fail "the signal was never handled";
  match !result with
  | Ok (`Line "after the signal") -> ()
  | Ok (`Line l) -> fail ("read returned the line " ^ l)
  | Ok `Oversized -> fail "read returned Oversized"
  | Ok `Eof -> fail "read returned Eof"
  | Error e -> fail ("read raised " ^ e)
