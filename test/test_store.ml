(* lib/store: checksummed journal records, torn-write recovery, atomic
   checkpoint + append discipline, fingerprints.

   - record round-trip: checkpoint + appends load back verbatim;
   - torn tails: a file cut mid-record (or with a flipped checksum
     byte) loses exactly the damaged suffix, never the valid prefix;
   - manifest damage is a hard error (it is only ever written by an
     atomic rename, so corruption there is not a torn append);
   - fingerprints are length-prefixed (part boundaries matter). *)

module Store = Ldx_store.Store

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let tmp_path () = Filename.temp_file "ldx_test_store" ".journal"

let with_tmp f =
  let path = tmp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let manifest =
  { Store.fingerprint = Store.fingerprint [ "test"; "manifest" ];
    meta = [ ("prog", "deadbeef"); ("note", "two words, a\ttab") ];
    tasks = [ "plain"; "with space"; "with\nnewline" ] }

let read_all path = In_channel.with_open_bin path In_channel.input_all

(* leftmost occurrence of [needle] in [hay] (tests only; no Str dep) *)
let find_sub hay needle =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length hay then
      Alcotest.failf "substring %S not found" needle
    else if String.sub hay i n = needle then i
    else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Hashing and escaping primitives.                                    *)

(* FNV-1a 64 of the empty string is the offset basis — known vectors
   pin the constants (and thus every checksum in every journal); the
   other two are the published FNV-1a-64 test vectors. *)
let test_fnv_known_vector () =
  check string "offset basis" "cbf29ce484222325" (Store.hash_hex "");
  check string "fnv1a64(\"a\")" "af63dc4c8601ec8c" (Store.hash_hex "a");
  check string "fnv1a64(\"foobar\")" "85944171f73967e8"
    (Store.hash_hex "foobar");
  check bool "hashing is not constant" true
    (Store.hash_hex "a" <> Store.hash_hex "b")

(* The one hex codec: two lower-case digits per byte, and a decoder
   that takes exactly what the encoder writes. *)
let test_hex_codec () =
  let all = String.init 256 Char.chr in
  check string "matches %02x per byte"
    (String.concat ""
       (List.init 256 (fun i -> Printf.sprintf "%02x" i)))
    (Store.to_hex all);
  check bool "round-trips every byte" true
    (Store.of_hex (Store.to_hex all) = Some all);
  check bool "empty round-trips" true (Store.of_hex (Store.to_hex "") = Some "");
  List.iter
    (fun s -> check bool (Printf.sprintf "%S rejected" s) true
        (Store.of_hex s = None))
    [ "5_"; "abc"; "AB"; "0g"; " 0" ]

let test_escape_round_trip () =
  List.iter
    (fun s ->
       (match Store.unescape (Store.escape s) with
        | Ok s' -> check string "escape round-trips" s s'
        | Error e -> Alcotest.failf "unescape failed on %S: %s" s e);
       check bool "escaped form is one line" false
         (String.contains (Store.escape s) '\n'))
    [ ""; "plain"; "two words"; "line\nbreak"; "tab\there"; {|back\slash|};
      "quote\"quote"; "\x00\x01\xff" ]

let test_fingerprint_boundaries () =
  check bool "part boundaries matter" true
    (Store.fingerprint [ "ab"; "c" ] <> Store.fingerprint [ "a"; "bc" ]);
  check string "equal parts, equal digest"
    (Store.fingerprint [ "x"; "y" ])
    (Store.fingerprint [ "x"; "y" ])

(* ------------------------------------------------------------------ *)
(* Round-trip.                                                         *)

let test_round_trip () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint ~path manifest [ (0, "ok 1 aabb") ] in
  Store.append t 1 "crash 2 dead beef";
  Store.append t 2 "payload with\nnewline";
  Store.close t;
  match Store.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check string "fingerprint survives" manifest.Store.fingerprint
      l.Store.l_manifest.Store.fingerprint;
    check bool "meta survives in order" true
      (l.Store.l_manifest.Store.meta = manifest.Store.meta);
    check bool "task labels survive in task order" true
      (l.Store.l_manifest.Store.tasks = manifest.Store.tasks);
    check bool "outcomes survive in file order" true
      (l.Store.l_outcomes
       = [ (0, "ok 1 aabb"); (1, "crash 2 dead beef");
           (2, "payload with\nnewline") ]);
    check int "nothing torn" 0 l.Store.l_torn

(* Checkpointing again with more outcomes atomically replaces the file
   (the heal-the-tail move resume performs). *)
let test_re_checkpoint_replaces () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint ~path manifest [ (0, "a") ] in
  Store.close t;
  let t = Store.checkpoint ~path manifest [ (0, "a"); (1, "b") ] in
  Store.append t 2 "c";
  Store.close t;
  match Store.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check bool "second checkpoint won" true
      (l.Store.l_outcomes = [ (0, "a"); (1, "b"); (2, "c") ])

(* ------------------------------------------------------------------ *)
(* Torn writes.                                                        *)

(* Cutting the file at EVERY byte position inside the journal section
   must recover exactly the records whose final newline made it to
   disk — and report the cut via [l_torn] whenever a partial record
   remains. *)
let test_torn_tail_every_cut () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint ~path manifest [] in
  Store.append t 0 "first";
  Store.append t 1 "second";
  Store.close t;
  let text = read_all path in
  (* everything the checkpoint wrote ends where the first append begins *)
  let journal_start = find_sub text "\no " + 1 in
  let boundary_after n =
    (* byte offset just past the [n]th journal record's newline *)
    let rec skip i left =
      if left = 0 then i
      else skip (String.index_from text i '\n' + 1) (left - 1)
    in
    skip journal_start n
  in
  for cut = journal_start to String.length text do
    let sub = tmp_path () in
    Fun.protect
      ~finally:(fun () -> try Sys.remove sub with Sys_error _ -> ())
      (fun () ->
         Out_channel.with_open_bin sub (fun oc ->
             output_string oc (String.sub text 0 cut));
         match Store.load ~path:sub with
         | Error e -> Alcotest.failf "cut at %d: %s" cut e
         | Ok l ->
           (* a record survives iff every byte except (at most) its
              trailing newline made it to disk — the checksum decides *)
           let complete =
             if cut >= boundary_after 2 - 1 then 2
             else if cut >= boundary_after 1 - 1 then 1
             else 0
           in
           check int
             (Printf.sprintf "cut at %d keeps complete records" cut)
             complete
             (List.length l.Store.l_outcomes);
           (* a partial (checksum-failing) record on disk is reported *)
           let clean =
             cut = journal_start
             || cut >= boundary_after 1 - 1 && cut <= boundary_after 1
             || cut >= boundary_after 2 - 1
           in
           check bool
             (Printf.sprintf "cut at %d reports tearing iff mid-record" cut)
             (not clean)
             (l.Store.l_torn > 0))
  done

(* A checksum mismatch (bit rot, not truncation) also drops the record
   and everything after it — the file stops being trustworthy at the
   first bad checksum. *)
let test_corrupt_record_drops_suffix () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint ~path manifest [] in
  Store.append t 0 "first";
  Store.append t 1 "second";
  Store.append t 2 "third";
  Store.close t;
  let text = read_all path in
  (* flip one payload byte of the SECOND journal record *)
  let i = find_sub text "second" in
  let b = Bytes.of_string text in
  Bytes.set b i 'S';
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Bytes.to_string b));
  match Store.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check bool "only the record before the damage survives" true
      (l.Store.l_outcomes = [ (0, "first") ]);
    check int "damaged record and its suffix counted torn" 2 l.Store.l_torn

(* Manifest damage is NOT torn-tail recovery: the manifest comes from
   an atomic checkpoint, so a bad checksum there is real corruption. *)
let test_corrupt_manifest_is_error () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint ~path manifest [ (0, "x") ] in
  Store.close t;
  let text = read_all path in
  let i = find_sub text "plain" in
  let b = Bytes.of_string text in
  Bytes.set b i 'P';
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Bytes.to_string b));
  (match Store.load ~path with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected Error on a corrupt task record");
  (* and a wrong header is rejected outright *)
  Out_channel.with_open_bin path (fun oc ->
      output_string oc ("# ldx-store/999\n" ^ text));
  match Store.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error on an unknown header"

let test_append_after_close_rejected () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint ~path manifest [] in
  Store.close t;
  match Store.append t 0 "late" with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* v2: lease-queue journals.                                           *)

let v2_entries =
  [ Store.Lease { index = 0; owner = "w1"; epoch = 0; deadline_us = 500 };
    Store.Heartbeat { owner = "w1"; deadline_us = 900 };
    Store.Outcome { index = 0; payload = "ok 1 aa" };
    Store.Release { index = 1; owner = "w2"; epoch = 3 };
    Store.Outcome { index = 1; payload = "with\nnewline" } ]

let test_v2_round_trip () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint_entries ~path manifest [ List.hd v2_entries ] in
  List.iter (Store.append_entry t) (List.tl v2_entries);
  Store.close t;
  match Store.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check int "v2 header detected" 2 l.Store.l_version;
    check bool "entries survive in file order" true
      (l.Store.l_entries = v2_entries);
    check bool "l_outcomes is the Outcome projection" true
      (l.Store.l_outcomes = [ (0, "ok 1 aa"); (1, "with\nnewline") ]);
    check int "nothing torn" 0 l.Store.l_torn

(* v1 files still load as version 1, and lease-queue records cannot be
   appended to them (they would be invisible to v1 readers). *)
let test_v1_rejects_lease_entries () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint ~path manifest [] in
  Fun.protect ~finally:(fun () -> Store.close t) @@ fun () ->
  (match Store.load ~path with
   | Error e -> Alcotest.fail e
   | Ok l -> check int "v1 header detected" 1 l.Store.l_version);
  match
    Store.append_entry t
      (Store.Lease { index = 0; owner = "w"; epoch = 0; deadline_us = 1 })
  with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Multi-writer tear discipline: damage in the MIDDLE of a v2 journal
   (a worker SIGKILLed mid-write, peers kept appending) loses exactly
   the damaged record — v1's drop-the-suffix rule would throw away the
   valid records after it, which other live writers own. *)
let test_v2_damage_drops_record_not_suffix () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint_entries ~path manifest [] in
  List.iter (Store.append_entry t) v2_entries;
  Store.close t;
  let text = read_all path in
  let i = find_sub text "w2" in
  let b = Bytes.of_string text in
  Bytes.set b i 'W';
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Bytes.to_string b));
  match Store.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check int "exactly the damaged record is torn" 1 l.Store.l_torn;
    check bool "records after the damage survive" true
      (l.Store.l_entries
       = List.filter (fun e -> e <> List.nth v2_entries 3) v2_entries)

(* A killed writer's half-line is terminated by the next appender's
   leading newline, so it fails its checksum in isolation. *)
let test_v2_half_line_isolated () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint_entries ~path manifest [] in
  Store.append_entry t
    (Store.Lease { index = 0; owner = "w1"; epoch = 0; deadline_us = 9 });
  Store.close t;
  (* a peer died mid-write: no trailing newline *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "\nl 0123456789abcdef 1 w";
  close_out oc;
  (* a healthy peer appends after it, leading newline first *)
  let line =
    Store.entry_line
      (Store.Outcome { index = 0; payload = "done" })
  in
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc ("\n" ^ line);
  close_out oc;
  match Store.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check int "the half-line alone is torn" 1 l.Store.l_torn;
    check bool "both healthy records survive" true
      (l.Store.l_entries
       = [ Store.Lease { index = 0; owner = "w1"; epoch = 0; deadline_us = 9 };
           Store.Outcome { index = 0; payload = "done" } ])

let test_entry_line_rejects_spacey_owner () =
  match
    Store.entry_line
      (Store.Lease { index = 0; owner = "two words"; epoch = 0;
                     deadline_us = 0 })
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ?sync is a durability knob, not a format change: a synced store
   loads back exactly like an unsynced one. *)
let test_sync_smoke () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint_entries ~path ~sync:true manifest [] in
  Store.append_entry t (Store.Outcome { index = 0; payload = "ok" });
  Store.close t;
  match Store.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check bool "synced store loads back" true
      (l.Store.l_outcomes = [ (0, "ok") ] && l.Store.l_torn = 0)

let tests =
  [ Alcotest.test_case "fnv-1a known vector" `Quick test_fnv_known_vector;
    Alcotest.test_case "hex codec round-trips, rejects non-hex" `Quick
      test_hex_codec;
    Alcotest.test_case "escape round-trips payloads" `Quick
      test_escape_round_trip;
    Alcotest.test_case "fingerprint part boundaries matter" `Quick
      test_fingerprint_boundaries;
    Alcotest.test_case "checkpoint + append round-trip" `Quick
      test_round_trip;
    Alcotest.test_case "re-checkpoint atomically replaces" `Quick
      test_re_checkpoint_replaces;
    Alcotest.test_case "torn tail recovered at every cut point" `Quick
      test_torn_tail_every_cut;
    Alcotest.test_case "corrupt record drops its suffix" `Quick
      test_corrupt_record_drops_suffix;
    Alcotest.test_case "corrupt manifest is a hard error" `Quick
      test_corrupt_manifest_is_error;
    Alcotest.test_case "append after close rejected" `Quick
      test_append_after_close_rejected;
    Alcotest.test_case "v2 entry round-trip" `Quick test_v2_round_trip;
    Alcotest.test_case "v1 rejects lease entries" `Quick
      test_v1_rejects_lease_entries;
    Alcotest.test_case "v2 damage drops the record, not the suffix" `Quick
      test_v2_damage_drops_record_not_suffix;
    Alcotest.test_case "v2 half-written line is isolated" `Quick
      test_v2_half_line_isolated;
    Alcotest.test_case "entry_line rejects owners with spaces" `Quick
      test_entry_line_rejects_spacey_owner;
    Alcotest.test_case "sync mode loads back identically" `Quick
      test_sync_smoke ]
