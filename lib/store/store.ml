(* Append-only CRC'd record log with atomic-rename checkpoints.

   Concurrency: one mutex per handle guards the table, the log fd and
   every derived counter; the serve daemon checkpoints from its wait
   loop while worker threads append, so all file mutation happens under
   the lock.  Lookups also take the lock — they are a hashtable probe,
   nothing more, and the optimizer consults the store once per search.

   Crash argument, in short: appends go through O_APPEND so a record is
   laid down at the end of the file in order; a crash mid-append leaves
   a frame that extends past EOF (torn tail), which recovery truncates.
   Checkpoints build the replacement file aside and publish it with
   rename(2), which POSIX makes atomic within a filesystem: a crash
   before the rename leaves the old log plus a stale temp file (ignored
   and overwritten later); a crash after leaves the new compact log.
   There is no window in which a reader can see a half-written store. *)

module Diag = Amg_robust.Diag
module Policy = Amg_robust.Policy
module Inject = Amg_robust.Inject
module Metrics = Amg_obs.Metrics
module Counters = Amg_obs.Counters

type entry = {
  rating : float;
  perm : int array;
  meta : (string * string) list;
}

type stats = {
  entries : int;
  log_records : int;
  log_bytes : int;
  hits : int;
  misses : int;
  writes : int;
  write_failures : int;
  recovered_records : int;
  torn_tail_truncations : int;
  corrupt_records : int;
  checkpoints : int;
}

type t = {
  path : string;
  lock : Mutex.t;
  tbl : (string, entry) Hashtbl.t;
  mutable log_fd : Unix.file_descr option;
  mutable log_records : int;
  mutable log_bytes : int;
  mutable unsynced : int;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable write_failures : int;
  mutable recovered_records : int;
  mutable torn_tail_truncations : int;
  mutable corrupt_records : int;
  mutable checkpoints : int;
  mutable closed : bool;
}

let magic = "AMGSTORE"
let version = 1
let header_len = String.length magic + 4
let max_payload = 1 lsl 24

(* Appended records between durability barriers. *)
let fsync_every = 8

(* --- CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) ------------------- *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s pos len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := crc_table.((!crc lxor Char.code (Bytes.unsafe_get s i)) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

(* --- record encoding --------------------------------------------------- *)

let add_u32 b n = Buffer.add_int32_le b (Int32.of_int n)

let add_lstring b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let encode_payload key e =
  let b = Buffer.create 128 in
  add_lstring b key;
  Buffer.add_int64_le b (Int64.bits_of_float e.rating);
  add_u32 b (Array.length e.perm);
  Array.iter (fun i -> add_u32 b i) e.perm;
  add_u32 b (List.length e.meta);
  List.iter
    (fun (k, v) ->
      add_lstring b k;
      add_lstring b v)
    e.meta;
  Buffer.to_bytes b

let encode_record key e =
  let payload = encode_payload key e in
  let n = Bytes.length payload in
  let rcd = Bytes.create (8 + n) in
  Bytes.set_int32_le rcd 0 (Int32.of_int n);
  Bytes.set_int32_le rcd 4 (Int32.of_int (crc32 payload 0 n));
  Bytes.blit payload 0 rcd 8 n;
  rcd

let get_u32 data pos = Int32.to_int (Bytes.get_int32_le data pos) land 0xFFFFFFFF

exception Malformed

let decode_payload data pos len =
  let limit = pos + len in
  let cur = ref pos in
  let need n = if !cur + n > limit then raise Malformed in
  let u32 () =
    need 4;
    let v = get_u32 data !cur in
    cur := !cur + 4;
    v
  in
  let lstring () =
    let n = u32 () in
    need n;
    let s = Bytes.sub_string data !cur n in
    cur := !cur + n;
    s
  in
  let key = lstring () in
  need 8;
  let rating = Int64.float_of_bits (Bytes.get_int64_le data !cur) in
  cur := !cur + 8;
  let plen = u32 () in
  if plen > len then raise Malformed;
  let perm = Array.init plen (fun _ -> u32 ()) in
  let mlen = u32 () in
  if mlen > len then raise Malformed;
  let meta =
    List.init mlen (fun _ ->
        let k = lstring () in
        let v = lstring () in
        (k, v))
  in
  if !cur <> limit then raise Malformed;
  (key, { rating; perm; meta })

(* --- contained I/O failures -------------------------------------------- *)

let diag_of_io_exn ~code ~path = function
  | Inject.Fault (site, hit) ->
      Diag.v ~severity:Diag.Warning Diag.Store ~code
        ~payload:
          [
            ("path", path);
            ("site", Inject.site_to_string site);
            ("hit", string_of_int hit);
          ]
        ~hint:"the in-memory table is still authoritative; durability degraded"
        (Printf.sprintf "injected store fault at %s (hit %d)"
           (Inject.site_to_string site) hit)
  | Unix.Unix_error (err, fn, _) ->
      Diag.v ~severity:Diag.Warning Diag.Store ~code
        ~payload:[ ("path", path); ("errno", Unix.error_message err); ("fn", fn) ]
        ~hint:"the in-memory table is still authoritative; durability degraded"
        (Printf.sprintf "store I/O failed in %s: %s" fn (Unix.error_message err))
  | Sys_error msg ->
      Diag.v ~severity:Diag.Warning Diag.Store ~code
        ~payload:[ ("path", path) ]
        ~hint:"the in-memory table is still authoritative; durability degraded"
        ("store I/O failed: " ^ msg)
  | exn -> raise exn

let io_exn = function
  | Inject.Fault _ | Unix.Unix_error _ | Sys_error _ -> true
  | _ -> false

(* --- low-level I/O ------------------------------------------------------ *)

let rec write_all fd b pos len =
  if len > 0 then begin
    let n =
      try Unix.write fd b pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd b (pos + n) (len - n)
  end

(* One probe per read(2): an armed store-read schedule models a log that
   cannot be read past a point (media error), yielding partial recovery. *)
let read_all fd path =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match
      Inject.probe Inject.Store_read;
      Unix.read fd chunk 0 (Bytes.length chunk)
    with
    | 0 -> None
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception e when io_exn e -> Some (diag_of_io_exn ~code:"store.read_failed" ~path e)
  in
  let failure = go () in
  (Buffer.to_bytes buf, failure)

let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* --- recovery scan ------------------------------------------------------ *)

type scan = {
  mutable s_records : int;  (** well-formed records replayed *)
  mutable s_corrupt : int;
  mutable s_torn : int;
  mutable s_good_end : int;  (** usable prefix; truncate here if torn *)
  mutable s_diags : Diag.t list;  (** reversed *)
}

(* Replays [data.(header_len .. len)] calling [apply key entry] per good
   record.  A frame extending past [len] is a torn tail (expected crash
   shape, silent); a CRC or decode failure is a corrupt interior record
   (diagnosed, skipped); an implausible length means framing is lost and
   the rest of the log is undecodable (diagnosed, dropped). *)
let scan_log ~path data len apply =
  let sc =
    { s_records = 0; s_corrupt = 0; s_torn = 0; s_good_end = header_len; s_diags = [] }
  in
  let diag ?(severity = Diag.Warning) code msg payload =
    sc.s_diags <- Diag.v ~severity Diag.Store ~code ~payload:(("path", path) :: payload) msg :: sc.s_diags
  in
  let pos = ref header_len in
  let stop = ref false in
  while (not !stop) && !pos < len do
    if len - !pos < 8 then begin
      (* partial frame header: torn tail *)
      sc.s_torn <- sc.s_torn + 1;
      sc.s_good_end <- !pos;
      stop := true
    end
    else begin
      let plen = get_u32 data !pos in
      let crc = get_u32 data (!pos + 4) in
      if plen > max_payload then begin
        (* framing lost: nothing after this offset can be trusted *)
        sc.s_corrupt <- sc.s_corrupt + 1;
        diag "store.corrupt_record"
          (Printf.sprintf "implausible record length %d at offset %d; dropping the rest of the log" plen !pos)
          [ ("offset", string_of_int !pos); ("len", string_of_int plen) ];
        sc.s_good_end <- !pos;
        stop := true
      end
      else if !pos + 8 + plen > len then begin
        (* frame extends past EOF: torn tail *)
        sc.s_torn <- sc.s_torn + 1;
        sc.s_good_end <- !pos;
        stop := true
      end
      else begin
        let ok = crc32 data (!pos + 8) plen = crc in
        (if not ok then begin
           sc.s_corrupt <- sc.s_corrupt + 1;
           diag "store.corrupt_record"
             (Printf.sprintf "CRC mismatch at offset %d; record dropped" !pos)
             [ ("offset", string_of_int !pos) ]
         end
         else
           match decode_payload data (!pos + 8) plen with
           | key, e ->
               apply key e;
               sc.s_records <- sc.s_records + 1
           | exception Malformed ->
               sc.s_corrupt <- sc.s_corrupt + 1;
               diag "store.corrupt_record"
                 (Printf.sprintf "undecodable payload at offset %d; record dropped" !pos)
                 [ ("offset", string_of_int !pos) ]);
        pos := !pos + 8 + plen;
        sc.s_good_end <- !pos
      end
    end
  done;
  sc

let check_header ~path data len =
  if len = 0 then `Empty
  else if len < header_len then `Torn_header
  else if Bytes.sub_string data 0 (String.length magic) <> magic then
    Diag.fail Diag.Store ~code:"store.bad_header"
      ~payload:[ ("path", path) ]
      ~hint:"this file is not an AMGSTORE result log; refusing to guess"
      (Printf.sprintf "bad magic in %s" path)
  else
    let v = get_u32 data (String.length magic) in
    if v <> version then
      Diag.fail Diag.Store ~code:"store.bad_header"
        ~payload:[ ("path", path); ("version", string_of_int v) ]
        (Printf.sprintf "unsupported store version %d in %s" v path)
    else `Ok

(* --- open --------------------------------------------------------------- *)

let header_bytes () =
  let b = Buffer.create header_len in
  Buffer.add_string b magic;
  add_u32 b version;
  Buffer.to_bytes b

let open_ path =
  let fd =
    try Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
    with Unix.Unix_error (err, fn, _) ->
      Diag.fail Diag.Store ~code:"store.open_failed"
        ~payload:[ ("path", path); ("errno", Unix.error_message err); ("fn", fn) ]
        (Printf.sprintf "cannot open store %s: %s" path (Unix.error_message err))
  in
  let t =
    {
      path;
      lock = Mutex.create ();
      tbl = Hashtbl.create 64;
      log_fd = None;
      log_records = 0;
      log_bytes = header_len;
      unsynced = 0;
      hits = 0;
      misses = 0;
      writes = 0;
      write_failures = 0;
      recovered_records = 0;
      torn_tail_truncations = 0;
      corrupt_records = 0;
      checkpoints = 0;
      closed = false;
    }
  in
  let finish_open () =
    let data, read_failure = read_all fd path in
    let len = Bytes.length data in
    let diags = ref (match read_failure with Some d -> [ d ] | None -> []) in
    (match check_header ~path data len with
    | `Ok ->
        let sc = scan_log ~path data len (fun k e -> Hashtbl.replace t.tbl k e) in
        t.log_records <- sc.s_records;
        t.recovered_records <- sc.s_records;
        t.torn_tail_truncations <- sc.s_torn;
        t.corrupt_records <- sc.s_corrupt;
        t.log_bytes <- sc.s_good_end;
        diags := List.rev_append sc.s_diags !diags;
        if sc.s_records > 0 then begin
          Counters.incr Counters.store_recoveries;
          Counters.add Counters.store_recovered_records sc.s_records;
          diags :=
            Diag.v ~severity:Diag.Info Diag.Store ~code:"store.recovered"
              ~payload:
                [
                  ("path", path);
                  ("records", string_of_int sc.s_records);
                  ("entries", string_of_int (Hashtbl.length t.tbl));
                ]
              (Printf.sprintf "replayed %d record(s), %d live entr%s" sc.s_records
                 (Hashtbl.length t.tbl)
                 (if Hashtbl.length t.tbl = 1 then "y" else "ies"))
            :: !diags
        end;
        (* silently repair a torn tail (and drop undecodable framing) so
           the next O_APPEND lands on a clean record boundary *)
        if read_failure = None && sc.s_good_end < len then
          Unix.ftruncate fd sc.s_good_end
    | `Empty ->
        write_all fd (header_bytes ()) 0 header_len;
        (try Unix.fsync fd with Unix.Unix_error _ -> ())
    | `Torn_header ->
        (* shorter than a header: only a crash during creation does this *)
        t.torn_tail_truncations <- 1;
        Unix.ftruncate fd 0;
        (* the fd offset is past the torn bytes just read; rewind or the
           fresh header lands after a hole of zeros *)
        ignore (Unix.lseek fd 0 Unix.SEEK_SET);
        write_all fd (header_bytes ()) 0 header_len;
        (try Unix.fsync fd with Unix.Unix_error _ -> ()));
    if t.torn_tail_truncations > 0 then
      Counters.add Counters.store_torn_tail_truncations t.torn_tail_truncations;
    if t.corrupt_records > 0 then
      Counters.add Counters.store_corrupt_records t.corrupt_records;
    Unix.close fd;
    t.log_fd <- Some (Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644);
    (t, List.rev !diags)
  in
  match finish_open () with
  | r -> r
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

(* --- accessors ---------------------------------------------------------- *)

let path t = t.path

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let length t = with_lock t (fun () -> Hashtbl.length t.tbl)

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
          t.hits <- t.hits + 1;
          Counters.incr Counters.store_hits;
          Some e
      | None ->
          t.misses <- t.misses + 1;
          Counters.incr Counters.store_misses;
          None)

let mem t key = find t key <> None

let iter f t =
  with_lock t (fun () -> Hashtbl.iter f t.tbl)

(* --- append path -------------------------------------------------------- *)

let report_failure t ~code exn =
  t.write_failures <- t.write_failures + 1;
  Counters.incr Counters.store_write_failures;
  Policy.report (diag_of_io_exn ~code ~path:t.path exn)

(* Caller holds the lock.  The probe sits *between* two half-writes when
   the harness is armed, so a scheduled store-write fault leaves half a
   record on disk — a genuine torn tail for recovery to chew on.  The
   tail is repaired immediately (ftruncate back to the pre-append size)
   so later appends still replay; the injected crash shape reaches disk
   only when the process actually dies before the repair. *)
let append_locked t rcd =
  match t.log_fd with
  | None -> ()
  | Some fd -> (
      let len = Bytes.length rcd in
      let appended () =
        t.log_records <- t.log_records + 1;
        t.log_bytes <- t.log_bytes + len;
        t.writes <- t.writes + 1;
        Counters.incr Counters.store_writes;
        t.unsynced <- t.unsynced + 1;
        if t.unsynced >= fsync_every then begin
          t.unsynced <- 0;
          try
            Inject.probe Inject.Store_fsync;
            Unix.fsync fd
          with e when io_exn e -> report_failure t ~code:"store.fsync_failed" e
        end
      in
      try
        if Inject.armed () then begin
          let h = len / 2 in
          write_all fd rcd 0 h;
          Inject.probe Inject.Store_write;
          write_all fd rcd h (len - h)
        end
        else begin
          Inject.probe Inject.Store_write;
          write_all fd rcd 0 len
        end;
        appended ()
      with e when io_exn e ->
        report_failure t ~code:"store.write_failed" e;
        (* repair: drop whatever partial frame made it to disk *)
        (try Unix.ftruncate fd t.log_bytes
         with Unix.Unix_error _ | Sys_error _ ->
           (* cannot even repair; stop appending to avoid a poisoned log *)
           (try Unix.close fd with Unix.Unix_error _ -> ());
           t.log_fd <- None))

(* The log appends the current domain holds back while it runs
   [deferred]'s function: the store and its records, newest first. *)
let held : (t * Bytes.t list ref) option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Caller holds the lock: append [rcd], or hold it back. *)
let log_locked t rcd =
  match Domain.DLS.get held with
  | Some (h, buf) when h == t -> buf := rcd :: !buf
  | _ -> append_locked t rcd

let deferred t f =
  let buf = ref [] and outer = Domain.DLS.get held in
  Domain.DLS.set held (Some (t, buf));
  let r = Fun.protect ~finally:(fun () -> Domain.DLS.set held outer) f in
  (r, fun () -> with_lock t (fun () -> List.iter (append_locked t) (List.rev !buf)))

let record t key e =
  with_lock t (fun () ->
      Hashtbl.replace t.tbl key e;
      log_locked t (encode_record key e))

let record_if t key ~keep e =
  with_lock t (fun () ->
      let write =
        match Hashtbl.find_opt t.tbl key with
        | None -> true
        | Some old -> not (keep old)
      in
      if write then begin
        Hashtbl.replace t.tbl key e;
        log_locked t (encode_record key e)
      end;
      write)

let sync t =
  with_lock t (fun () ->
      match t.log_fd with
      | Some fd when t.unsynced > 0 -> (
          t.unsynced <- 0;
          try
            Inject.probe Inject.Store_fsync;
            Unix.fsync fd
          with e when io_exn e -> report_failure t ~code:"store.fsync_failed" e)
      | _ -> ())

(* --- checkpoint --------------------------------------------------------- *)

let checkpoint t =
  with_lock t (fun () ->
      if t.closed then ()
      else begin
        let tmp = t.path ^ ".tmp" in
        let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
        match
          let entries =
            Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.tbl []
            |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          in
          let fd =
            Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
          in
          let bytes = ref header_len in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              write_all fd (header_bytes ()) 0 header_len;
              List.iter
                (fun (k, e) ->
                  let rcd = encode_record k e in
                  Inject.probe Inject.Store_write;
                  write_all fd rcd 0 (Bytes.length rcd);
                  bytes := !bytes + Bytes.length rcd)
                entries;
              Inject.probe Inject.Store_fsync;
              Unix.fsync fd);
          Inject.probe Inject.Store_rename;
          Unix.rename tmp t.path;
          fsync_dir t.path;
          (List.length entries, !bytes)
        with
        | n_records, n_bytes ->
            (* the old log fd now points at the unlinked inode; swing the
               append handle over to the published snapshot *)
            (match t.log_fd with
            | Some fd -> (
                (try Unix.close fd with Unix.Unix_error _ -> ());
                t.log_fd <- None;
                match Unix.openfile t.path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 with
                | fd -> t.log_fd <- Some fd
                | exception e when io_exn e ->
                    report_failure t ~code:"store.checkpoint_failed" e)
            | None -> ());
            t.log_records <- n_records;
            t.log_bytes <- n_bytes;
            t.unsynced <- 0;
            t.checkpoints <- t.checkpoints + 1;
            Counters.incr Counters.store_checkpoints
        | exception e when io_exn e ->
            cleanup ();
            report_failure t ~code:"store.checkpoint_failed" e
      end)

let close t =
  with_lock t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        match t.log_fd with
        | Some fd ->
            t.log_fd <- None;
            (if t.unsynced > 0 then
               try
                 Inject.probe Inject.Store_fsync;
                 Unix.fsync fd
               with e when io_exn e -> report_failure t ~code:"store.fsync_failed" e);
            (try Unix.close fd with Unix.Unix_error _ -> ())
        | None -> ()
      end)

let stats t =
  with_lock t (fun () ->
      {
        entries = Hashtbl.length t.tbl;
        log_records = t.log_records;
        log_bytes = t.log_bytes;
        hits = t.hits;
        misses = t.misses;
        writes = t.writes;
        write_failures = t.write_failures;
        recovered_records = t.recovered_records;
        torn_tail_truncations = t.torn_tail_truncations;
        corrupt_records = t.corrupt_records;
        checkpoints = t.checkpoints;
      })

(* --- verify ------------------------------------------------------------- *)

let verify path =
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (err, fn, _) ->
      Diag.fail Diag.Store ~code:"store.open_failed"
        ~payload:[ ("path", path); ("errno", Unix.error_message err); ("fn", fn) ]
        (Printf.sprintf "cannot open store %s: %s" path (Unix.error_message err))
  in
  let data, read_failure =
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> read_all fd path)
  in
  let len = Bytes.length data in
  let tbl = Hashtbl.create 64 in
  let diags = ref (match read_failure with Some d -> [ d ] | None -> []) in
  let records = ref 0 and torn = ref 0 and corrupt = ref 0 and good_end = ref len in
  (match check_header ~path data len with
  | `Ok ->
      let sc = scan_log ~path data len (fun k e -> Hashtbl.replace tbl k e) in
      records := sc.s_records;
      torn := sc.s_torn;
      corrupt := sc.s_corrupt;
      good_end := sc.s_good_end;
      diags := List.rev_append sc.s_diags !diags;
      if sc.s_torn > 0 then
        diags :=
          Diag.v ~severity:Diag.Info Diag.Store ~code:"store.torn_tail"
            ~payload:
              [
                ("path", path);
                ("offset", string_of_int sc.s_good_end);
                ("bytes", string_of_int (len - sc.s_good_end));
              ]
            (Printf.sprintf "torn tail: %d trailing byte(s) would be truncated on open"
               (len - sc.s_good_end))
          :: !diags
  | `Empty -> ()
  | `Torn_header ->
      torn := 1;
      good_end := 0;
      diags :=
        Diag.v ~severity:Diag.Info Diag.Store ~code:"store.torn_tail"
          ~payload:[ ("path", path) ]
          "file shorter than a store header; would be reinitialized on open"
        :: !diags);
  ( {
      entries = Hashtbl.length tbl;
      log_records = !records;
      log_bytes = len;
      hits = 0;
      misses = 0;
      writes = 0;
      write_failures = 0;
      recovered_records = !records;
      torn_tail_truncations = !torn;
      corrupt_records = !corrupt;
      checkpoints = 0;
    },
    List.rev !diags )

(* --- canonical key ------------------------------------------------------ *)

type param = Num of float | Str of string

let signature ~tech ~entity ~params =
  let b = Buffer.create 96 in
  let token s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  token tech;
  token entity;
  List.sort (fun (a, _) (c, _) -> String.compare a c) params
  |> List.iter (fun (k, p) ->
         token k;
         token
           (match p with
           | Num f -> Printf.sprintf "n%h" f
           | Str s -> "s" ^ s));
  Buffer.contents b

let tech_fingerprint text = Digest.to_hex (Digest.string text)

(* --- registry gauges ---------------------------------------------------- *)

let register_metrics t =
  Metrics.gauge_fn "store.records" (fun () -> float_of_int (length t));
  Metrics.gauge_fn "store.bytes" (fun () ->
      float_of_int (with_lock t (fun () -> t.log_bytes)))
