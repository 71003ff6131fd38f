(* Durable journaled storage.  See the interface for the format
   grammar and the checkpoint/append durability discipline. *)

let header = "ldx-store/1"
let header_v2 = "ldx-store/2"

(* ------------------------------------------------------------------ *)
(* Checksums and fingerprints.                                         *)

(* FNV-1a 64-bit: tiny, dependency-free, and plenty for torn-write
   detection — the threat model is a half-written line after a crash,
   not an adversary forging collisions.  A plain [for] loop keeps the
   accumulator unboxed (a [ref] captured by a [String.iter] closure
   boxes an [Int64] per byte). *)
let fnv64 (s : string) : int64 =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

let hex_digits = "0123456789abcdef"

let hash_hex s =
  let h = fnv64 s in
  Bytes.init 16 (fun i ->
      hex_digits.[Int64.to_int (Int64.shift_right_logical h (60 - (4 * i)))
                  land 15])
  |> Bytes.unsafe_to_string

let to_hex (s : string) : string =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set b (2 * i) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set b ((2 * i) + 1) (String.unsafe_get hex_digits (c land 15))
  done;
  Bytes.unsafe_to_string b

let of_hex (s : string) : string option =
  let nibble c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | _ -> -1
  in
  let n = String.length s in
  if n mod 2 <> 0 then None
  else begin
    let b = Bytes.create (n / 2) in
    let rec go i =
      if i >= n / 2 then Some (Bytes.unsafe_to_string b)
      else
        let hi = nibble s.[2 * i] and lo = nibble s.[(2 * i) + 1] in
        if hi < 0 || lo < 0 then None
        else begin
          Bytes.unsafe_set b i (Char.unsafe_chr ((hi lsl 4) lor lo));
          go (i + 1)
        end
    in
    go 0
  end

(* Length-prefixing keeps part boundaries significant, so moving bytes
   between adjacent parts always changes the digest. *)
let fingerprint (parts : string list) : string =
  hash_hex
    (String.concat ""
       (List.map (fun p -> string_of_int (String.length p) ^ ":" ^ p) parts))

let escape = String.escaped

(* [Scanf.unescaped] walks its input a byte at a time through a scanning
   buffer; a string with no backslash and no double quote has nothing
   to unescape (and nothing it would reject), so it is returned as is. *)
let unescape (s : string) : (string, string) result =
  if not (String.exists (fun c -> c = '\\' || c = '"') s) then Ok s
  else
    match Scanf.unescaped s with
    | v -> Ok v
    | exception Scanf.Scan_failure m -> Error ("bad escape: " ^ m)
    | exception Failure m -> Error ("bad escape: " ^ m)

(* ------------------------------------------------------------------ *)
(* Records.                                                            *)

type manifest = {
  fingerprint : string;
  meta : (string * string) list;
  tasks : string list;
}

(* One checksummed line: "<tag> <crc> <rest>" with crc = fnv64(rest).
   [rest] must be newline-free (payloads are escaped by the caller of
   [record]). *)
let record tag rest = Printf.sprintf "%c %s %s\n" tag (hash_hex rest) rest

let outcome_line index payload =
  record 'o' (Printf.sprintf "%d %s" index (escape payload))

(* Journal entries.  Owners ride unescaped inside space-separated
   fields, so they must be flat tokens — they are machine-generated
   worker identities ("w0-12345"), not user text. *)
type entry =
  | Outcome of { index : int; payload : string }
  | Lease of { index : int; owner : string; epoch : int; deadline_us : int }
  | Heartbeat of { owner : string; deadline_us : int }
  | Release of { index : int; owner : string; epoch : int }

let check_owner owner =
  if owner = ""
     || String.exists (fun c -> c = ' ' || c = '\n' || c = '\r') owner
  then invalid_arg ("Store: bad owner token " ^ String.escaped owner)

let entry_line = function
  | Outcome { index; payload } -> outcome_line index payload
  | Lease { index; owner; epoch; deadline_us } ->
    check_owner owner;
    record 'l' (Printf.sprintf "%d %s %d %d" index owner epoch deadline_us)
  | Heartbeat { owner; deadline_us } ->
    check_owner owner;
    record 'h' (Printf.sprintf "%s %d" owner deadline_us)
  | Release { index; owner; epoch } ->
    check_owner owner;
    record 'r' (Printf.sprintf "%d %s %d" index owner epoch)

let manifest_lines ~version (m : manifest) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    ("# " ^ (if version >= 2 then header_v2 else header) ^ "\n");
  Buffer.add_string buf ("f " ^ m.fingerprint ^ "\n");
  List.iter
    (fun (k, v) ->
       if String.contains k ' ' then
         invalid_arg "Store: manifest keys must not contain spaces";
       Buffer.add_string buf (record 'm' (k ^ " " ^ escape v)))
    m.meta;
  List.iteri
    (fun i label ->
       Buffer.add_string buf (record 't' (string_of_int i ^ " " ^ escape label)))
    m.tasks;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Writing.                                                            *)

type t = {
  path : string;
  version : int;
  sync : bool;
  mutable oc : out_channel option;
}

let fsync_oc oc =
  (* flush first: fsync pushes the KERNEL's buffers to the platter, the
     channel's userspace buffer is on this side of that boundary *)
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

let checkpoint_gen ~path ~version ~sync (m : manifest) (lines : string list) : t =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc (manifest_lines ~version m);
      List.iter (output_string oc) lines;
      (* the rename publishes whatever made it to disk; flush first so
         "whatever" is the whole checkpoint *)
      flush oc;
      if sync then fsync_oc oc);
  Sys.rename tmp path;
  (* with [sync] the rename itself must survive power loss too: fsync
     the containing directory (best-effort — some filesystems refuse
     fsync on a directory fd) *)
  if sync then begin
    match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
    | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
    | exception Unix.Unix_error _ -> ()
  end;
  { path; version; sync;
    oc = Some (Out_channel.open_gen [ Open_append; Open_binary ] 0o644 path) }

let checkpoint ~path ?(sync = false) (m : manifest)
    (outcomes : (int * string) list) : t =
  checkpoint_gen ~path ~version:1 ~sync m
    (List.map (fun (i, payload) -> outcome_line i payload) outcomes)

let checkpoint_entries ~path ?(sync = false) (m : manifest)
    (entries : entry list) : t =
  checkpoint_gen ~path ~version:2 ~sync m (List.map entry_line entries)

let append_line (t : t) (line : string) : unit =
  match t.oc with
  | None -> invalid_arg "Store.append: store is closed"
  | Some oc ->
    output_string oc line;
    (* flush per record: a crash after [append] returns must find the
       record on the other side of the channel buffer *)
    flush oc;
    if t.sync then fsync_oc oc

let append (t : t) (index : int) (payload : string) : unit =
  append_line t (outcome_line index payload)

let append_entry (t : t) (e : entry) : unit =
  (match e with
   | Outcome _ -> ()
   | Lease _ | Heartbeat _ | Release _ ->
     if t.version < 2 then
       invalid_arg "Store.append_entry: lease records need a v2 store");
  append_line t (entry_line e)

let path_of t = t.path

let close (t : t) : unit =
  match t.oc with
  | None -> ()
  | Some oc ->
    t.oc <- None;
    Out_channel.close oc

(* ------------------------------------------------------------------ *)
(* Reading.                                                            *)

type loaded = {
  l_manifest : manifest;
  l_version : int;
  l_entries : entry list;
  l_outcomes : (int * string) list;
  l_torn : int;
}

let split_once ch s =
  match String.index_opt s ch with
  | None -> None
  | Some i ->
    Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

(* "<tag> <crc> <rest>" with a matching checksum, or None. *)
let parse_record (line : string) : (char * string) option =
  if String.length line < 2 || line.[1] <> ' ' then None
  else
    match split_once ' ' (String.sub line 2 (String.length line - 2)) with
    | Some (crc, rest) when crc = hash_hex rest -> Some (line.[0], rest)
    | _ -> None

(* Decode the checksummed [rest] of a journal record; [None] = a
   malformed body under a VALID checksum, which the torn-tail rule
   treats like any other damage. *)
let parse_entry (tag : char) (rest : string) : entry option =
  let fields = String.split_on_char ' ' rest in
  match (tag, fields) with
  | 'o', index :: payload ->
    (match (int_of_string_opt index, unescape (String.concat " " payload)) with
     | Some index, Ok payload -> Some (Outcome { index; payload })
     | _ -> None)
  | 'l', [ index; owner; epoch; deadline ] ->
    (match
       (int_of_string_opt index, int_of_string_opt epoch,
        int_of_string_opt deadline)
     with
     | Some index, Some epoch, Some deadline_us when owner <> "" ->
       Some (Lease { index; owner; epoch; deadline_us })
     | _ -> None)
  | 'h', [ owner; deadline ] ->
    (match int_of_string_opt deadline with
     | Some deadline_us when owner <> "" -> Some (Heartbeat { owner; deadline_us })
     | _ -> None)
  | 'r', [ index; owner; epoch ] ->
    (match (int_of_string_opt index, int_of_string_opt epoch) with
     | Some index, Some epoch when owner <> "" ->
       Some (Release { index; owner; epoch })
     | _ -> None)
  | _ -> None

(* The one line decoder: a scan over a store file's lines, one line at
   a time, in file order.  [read] runs it from byte 0 (every [load] and
   every rebuild) or from where the previous read stopped.  Mutable for
   speed; a reader judges an unterminated last line on a copy so the
   line is read again, whole, once its newline lands. *)
type scan = {
  s_path : string;
  s_version : int;
  mutable s_lineno : int;            (* 0-based number of the next line *)
  mutable s_in_journal : bool;
  mutable s_torn : int;
  mutable s_err : string option;
  mutable s_fingerprint : string option;
  mutable s_meta : (string * string) list;  (* reversed *)
  mutable s_tasks : (int * string) list;    (* (index, label), reversed *)
}

let fresh_scan path text =
  let first =
    match String.index_opt text '\n' with
    | Some i -> String.sub text 0 i
    | None -> text
  in
  { s_path = path;
    s_version = (if first = "# " ^ header_v2 then 2 else 1);
    s_lineno = 0; s_in_journal = false; s_torn = 0; s_err = None;
    s_fingerprint = None; s_meta = []; s_tasks = [] }

(* Advance [s] over one line (without its newline); the journal entry
   the line holds, if it holds a valid one. *)
let scan_line (s : scan) (line : string) : entry option =
  let lineno = s.s_lineno in
  s.s_lineno <- lineno + 1;
  let fail msg =
    s.s_err <- Some (Printf.sprintf "%s: line %d: %s" s.s_path (lineno + 1) msg)
  in
  let torn () = s.s_torn <- s.s_torn + 1 in
  let expected_header =
    "# " ^ (if s.s_version >= 2 then header_v2 else header)
  in
  let journal_tag c =
    c = 'o' || (s.s_version >= 2 && (c = 'l' || c = 'h' || c = 'r'))
  in
  if s.s_err <> None then None
  else if line <> "" && (lineno > 0 || line = expected_header) then
    match line.[0] with
    | '#' -> None
    | c when journal_tag c ->
      s.s_in_journal <- true;
      (* the journal is where torn writes live.  v1 files have one
         writer, so a record that fails its checksum (or was cut short)
         is dropped along with everything after it — a tear mid-file
         means the file is not append-only and nothing downstream can
         be trusted.  v2 files have many [O_APPEND] writers, each
         prefixing its record with a newline: a peer killed
         mid-write(2) leaves a damaged record in the MIDDLE of the file
         while later appends are intact, so v2 drops bad records
         individually — each one still vouched for (or condemned) by
         its own checksum. *)
      if s.s_version < 2 && s.s_torn > 0 then (torn (); None)
      else (
        match parse_record line with
        | Some (tag, rest) ->
          (match parse_entry tag rest with
           | Some _ as e -> e
           | None -> torn (); None)
        | None -> torn (); None)
    | _ when s.s_in_journal ->
      (* junk after the journal started: same torn-record treatment *)
      torn ();
      None
    | 'f' ->
      (match split_once ' ' line with
       | Some ("f", fp) when s.s_fingerprint = None ->
         s.s_fingerprint <- Some fp
       | _ -> fail "malformed fingerprint record");
      None
    | 'm' ->
      (match parse_record line with
       | Some ('m', rest) ->
         (match split_once ' ' rest with
          | Some (k, v) ->
            (match unescape v with
             | Ok v -> s.s_meta <- (k, v) :: s.s_meta
             | Error e -> fail e)
          | None -> fail "malformed manifest record")
       | _ -> fail "manifest record failed its checksum");
      None
    | 't' ->
      (match parse_record line with
       | Some ('t', rest) ->
         (match split_once ' ' rest with
          | Some (i, v) ->
            (match (int_of_string_opt i, unescape v) with
             | Some i, Ok v -> s.s_tasks <- (i, v) :: s.s_tasks
             | _ -> fail "malformed task record")
          | None -> fail "malformed task record")
       | _ -> fail "task record failed its checksum");
      None
    | _ ->
      fail (Printf.sprintf "unknown record %S" line);
      None
  else begin
    if lineno = 0 then
      fail (Printf.sprintf "expected header %S" expected_header);
    None
  end

let manifest_of (s : scan) : (manifest, string) result =
  match (s.s_err, s.s_fingerprint) with
  | Some e, _ -> Error e
  | None, None -> Error (s.s_path ^ ": missing fingerprint record")
  | None, Some fp ->
    (* task records carry their index so order on disk is free; sort
       back into task order *)
    let tasks =
      List.sort (fun (a, _) (b, _) -> compare a b) (List.rev s.s_tasks)
      |> List.map snd
    in
    Ok { fingerprint = fp; meta = List.rev s.s_meta; tasks }

(* ------------------------------------------------------------------ *)
(* Incremental reading.                                                *)

(* where the next read goes on from: the file read, the offset just
   past the last '\n' consumed, the scan after that line, and the
   manifest *)
type resume = {
  at_file : int * int;  (* st_dev, st_ino *)
  at_offset : int;
  at_scan : scan;
  at_manifest : manifest;
}

type reader = { r_path : string; mutable r_resume : resume option }

type delta = {
  d_reset : bool;
  d_manifest : manifest;
  d_version : int;
  d_entries : entry list;
  d_tail : entry option;
  d_torn : int;
}

let reader ~path = { r_path = path; r_resume = None }

(* The bytes of [fd] from [from] to [size], with plain read(2)s: a
   channel would allocate its 64 KiB buffer on every poll. *)
let read_range fd ~from ~size =
  let buf = Bytes.create (max 0 (size - from)) in
  ignore (Unix.lseek fd from Unix.SEEK_SET);
  let rec fill off =
    if off >= Bytes.length buf then off
    else
      match Unix.read fd buf off (Bytes.length buf - off) with
      | 0 -> off
      | n -> fill (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill off
  in
  let n = fill 0 in
  if n = Bytes.length buf then Bytes.unsafe_to_string buf
  else Bytes.sub_string buf 0 n

let read_delta (r : reader) : (delta, string) result =
  let fd = Unix.openfile r.r_path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let st = Unix.fstat fd in
  let file = (st.Unix.st_dev, st.Unix.st_ino) in
  (* go on from the offset only when it is the same file, still at
     least as long, and past its manifest (so new lines can only be
     journal lines); otherwise rebuild from byte 0 *)
  let resume =
    match r.r_resume with
    | Some at
      when at.at_scan.s_in_journal && at.at_file = file
           && st.Unix.st_size >= at.at_offset ->
      Some at
    | _ -> None
  in
  let from = match resume with Some at -> at.at_offset | None -> 0 in
  (* up to the size just seen: bytes appended since are the next
     read's *)
  let text = read_range fd ~from ~size:st.Unix.st_size in
  let s =
    match resume with Some at -> at.at_scan | None -> fresh_scan r.r_path text
  in
  (* [s] is advanced in place: until this read succeeds, the reader
     has nothing to go on from *)
  r.r_resume <- None;
  let rec consume pos acc =
    match String.index_from_opt text pos '\n' with
    | None -> (pos, acc)
    | Some nl ->
      let acc =
        match scan_line s (String.sub text pos (nl - pos)) with
        | Some e -> e :: acc
        | None -> acc
      in
      consume (nl + 1) acc
  in
  let stop, rev_entries = consume 0 [] in
  (* whatever follows the last newline — possibly "" — is judged as
     [load] judges a file's last line, on a copy of the scan *)
  let last = { s with s_lineno = s.s_lineno } in
  let tail =
    scan_line last (String.sub text stop (String.length text - stop))
  in
  let manifest =
    match resume with
    | Some at -> Ok at.at_manifest  (* past the manifest: it cannot change *)
    | None -> manifest_of last
  in
  Result.map
    (fun m ->
       (* only a scan past the manifest can be gone on from *)
       if s.s_in_journal then
         r.r_resume <-
           Some { at_file = file; at_offset = from + stop; at_scan = s;
                  at_manifest = m };
       { d_reset = Option.is_none resume;
         d_manifest = m;
         d_version = s.s_version;
         d_entries = List.rev rev_entries;
         d_tail = tail;
         d_torn = last.s_torn })
    manifest

let read r =
  try read_delta r with
  | Unix.Unix_error (e, _, _) -> Error (r.r_path ^ ": " ^ Unix.error_message e)

let load ~path : (loaded, string) result =
  match read (reader ~path) with
  | Error e -> Error e
  | Ok d ->
    let entries = d.d_entries @ Option.to_list d.d_tail in
    Ok
      { l_manifest = d.d_manifest;
        l_version = d.d_version;
        l_entries = entries;
        l_outcomes =
          List.filter_map
            (function
              | Outcome { index; payload } -> Some (index, payload)
              | Lease _ | Heartbeat _ | Release _ -> None)
            entries;
        l_torn = d.d_torn }
