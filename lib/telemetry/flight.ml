(* Flight recorder: fixed-size, allocation-free, per-domain rings of
   structured events, drained post-mortem into crash dumps.

   Each domain owns one ring (reached through [Domain.DLS], mirroring the
   telemetry shards): a preallocated flat [int array] of [capacity] slots,
   5 ints per slot — timestamp, event code, and three event-specific
   arguments.  Recording an event is four plain stores into domain-local
   memory plus a wrapping index update: no allocation, no atomics, no
   shared write.  With the recorder disabled (the default) an instrumented
   call site costs one load and one branch, the same budget as a disabled
   telemetry counter.

   The rings are the evidence that survives a failure: on [Pool_failure],
   a watchdog trip, or an uncaught exception, the binaries drain every
   domain's ring into [crashdump-<seed>.json] (see {!write_crashdump}) so
   the last N events per domain — who was restarting where, what the GC
   was doing, which failpoints fired — are attributable after the fact.

   GC correlation: [enable] installs a single [Gc.create_alarm] on the
   calling (long-lived) domain; the major cycle is global in OCaml 5, so
   one alarm observes every cycle end and records a [Gc_major] event into
   the enabling domain's ring.  The alarm must NOT be per-domain: alarms
   are self-re-registering finalisers, and a domain that terminates with
   one pending leaves it to the runtime's orphaned-finaliser adoption,
   which segfaults intermittently under domain churn on OCaml 5.1 (seen
   as crashes in a run *after* the one that spawned the domains).  OCaml
   exposes no minor-collection hook, so minor pauses are not individually
   visible; major-cycle ends bound the pauses that matter for tail
   latency (DESIGN.md section 11). *)

(* Event vocabulary.  Codes are the wire format (ring slots and crash
   dumps), so they are append-only: new kinds take fresh codes. *)
module Ev = struct
  type t =
    | Validation_fail  (** optimistic descent lease died; a1=level a2=bucket *)
    | Upgrade_fail  (** read-to-write upgrade CAS lost; a1=level a2=bucket *)
    | Restart  (** insertion restarted from the root; a1=attempt number *)
    | Fallback  (** optimistic budget exhausted; a1=level a2=bucket *)
    | Lock_wait  (** contended write acquisition; a1=wait ns (untagged) *)
    | Split  (** node split; a1=level a2=bucket *)
    | Phase  (** relation phase flip; a1=code, see {!phase_name} *)
    | Pool_job_start
    | Pool_job_end  (** a1=wall ns *)
    | Watchdog  (** join-side deadline exceeded; a1=wall ms a2=deadline ms *)
    | Chaos_fire  (** failpoint fired; a1=point index *)
    | Gc_major  (** end of a GC major cycle; a1=majors a2=minors *)

  let all =
    [
      Validation_fail; Upgrade_fail; Restart; Fallback; Lock_wait; Split;
      Phase; Pool_job_start; Pool_job_end; Watchdog; Chaos_fire; Gc_major;
    ]

  let code = function
    | Validation_fail -> 0
    | Upgrade_fail -> 1
    | Restart -> 2
    | Fallback -> 3
    | Lock_wait -> 4
    | Split -> 5
    | Phase -> 6
    | Pool_job_start -> 7
    | Pool_job_end -> 8
    | Watchdog -> 9
    | Chaos_fire -> 10
    | Gc_major -> 11

  let of_code = function
    | 0 -> Some Validation_fail
    | 1 -> Some Upgrade_fail
    | 2 -> Some Restart
    | 3 -> Some Fallback
    | 4 -> Some Lock_wait
    | 5 -> Some Split
    | 6 -> Some Phase
    | 7 -> Some Pool_job_start
    | 8 -> Some Pool_job_end
    | 9 -> Some Watchdog
    | 10 -> Some Chaos_fire
    | 11 -> Some Gc_major
    | _ -> None

  let name = function
    | Validation_fail -> "validation_fail"
    | Upgrade_fail -> "upgrade_fail"
    | Restart -> "restart"
    | Fallback -> "fallback"
    | Lock_wait -> "lock_wait"
    | Split -> "split"
    | Phase -> "phase"
    | Pool_job_start -> "pool_job_start"
    | Pool_job_end -> "pool_job_end"
    | Watchdog -> "watchdog"
    | Chaos_fire -> "chaos_fire"
    | Gc_major -> "gc_major"

  let of_name s = List.find_opt (fun e -> name e = s) all
end

let phase_write_enter = 0
let phase_write_leave = 1
let phase_read_enter = 2
let phase_read_leave = 3

let phase_name = function
  | 0 -> "write_enter"
  | 1 -> "write_leave"
  | 2 -> "read_enter"
  | 3 -> "read_leave"
  | c -> "phase_" ^ string_of_int c

(* 5 ints per slot: ts, code, a1, a2, a3. *)
let stride = 5
let default_capacity = 4096

type ring = {
  r_domain : int;
  mutable r_slots : int array;  (* length = capacity * stride *)
  mutable r_pos : int;  (* next slot to write, in [0, capacity) *)
  mutable r_total : int;  (* events ever recorded (dropped = total - cap) *)
}

(* Append-only registry, mirroring the telemetry shard registry: rings of
   terminated domains stay listed so their evidence survives into dumps
   taken after a pool shuts down. *)
let rings : ring list ref = ref []
let rings_mutex = Mutex.create ()
let ring_capacity = ref default_capacity

(* Master switch.  A plain ref, flipped only from quiescent code; racy
   readers seeing a stale value skip or record a handful of events. *)
let flight_on = ref false

let enabled () = !flight_on

(* GC correlation: exactly one [Gc.create_alarm], installed by the first
   [enable] on the calling domain (see the header comment for why it must
   not be per-domain).  The callback goes through a forward ref because it
   records through the ring machinery defined below. *)
let gc_alarm_hook : (unit -> unit) ref = ref (fun () -> ())
let gc_alarm_installed = ref false

let ring_key =
  Domain.DLS.new_key (fun () ->
      let d = (Domain.self () :> int) in
      let r =
        {
          r_domain = d;
          r_slots = Array.make (!ring_capacity * stride) 0;
          r_pos = 0;
          r_total = 0;
        }
      in
      Mutex.protect rings_mutex (fun () -> rings := r :: !rings);
      r)

let record_slow ev a1 a2 a3 =
  let r = Domain.DLS.get ring_key in
  let cap = Array.length r.r_slots / stride in
  let base = r.r_pos * stride in
  let s = r.r_slots in
  Array.unsafe_set s base (Telemetry.now_ns ());
  Array.unsafe_set s (base + 1) (Ev.code ev);
  Array.unsafe_set s (base + 2) a1;
  Array.unsafe_set s (base + 3) a2;
  Array.unsafe_set s (base + 4) a3;
  r.r_pos <- (if r.r_pos + 1 = cap then 0 else r.r_pos + 1);
  r.r_total <- r.r_total + 1

(* The per-event fast path: one load + branch when disabled. *)
let record ev a1 a2 a3 = if !flight_on then record_slow ev a1 a2 a3

let () =
  gc_alarm_hook :=
    fun () ->
      if !flight_on then begin
        let s = Gc.quick_stat () in
        record_slow Ev.Gc_major s.Gc.major_collections s.Gc.minor_collections 0
      end

let capacity () = !ring_capacity

let reset () =
  Mutex.protect rings_mutex (fun () ->
      List.iter
        (fun r ->
          (* reallocate when the configured capacity changed since this
             ring was created, so [enable ~capacity] applies everywhere *)
          if Array.length r.r_slots <> !ring_capacity * stride then
            r.r_slots <- Array.make (!ring_capacity * stride) 0;
          r.r_pos <- 0;
          r.r_total <- 0)
        !rings)

(* Registered with the telemetry trace exporter on first [enable], so
   flight events ride along in Chrome traces as instants (cat "flight"). *)
let provider_registered = ref false

type event = {
  e_domain : int;
  e_ts : int;
  e_kind : Ev.t;
  e_a1 : int;
  e_a2 : int;
  e_a3 : int;
}

(* Oldest-first drain of one ring.  Reads of a live ring are
   racy-but-defined (plain ints); dumps are taken from quiescent or
   post-mortem code where the rings are no longer advancing. *)
let ring_events r =
  let slots = r.r_slots in
  let cap = Array.length slots / stride in
  let n = min r.r_total cap in
  let start = if r.r_total <= cap then 0 else r.r_pos in
  List.filter_map
    (fun i ->
      let base = (start + i) mod cap * stride in
      match Ev.of_code slots.(base + 1) with
      | None -> None
      | Some kind ->
        Some
          {
            e_domain = r.r_domain;
            e_ts = slots.(base);
            e_kind = kind;
            e_a1 = slots.(base + 2);
            e_a2 = slots.(base + 3);
            e_a3 = slots.(base + 4);
          })
    (List.init n Fun.id)

let events () =
  let rs = Mutex.protect rings_mutex (fun () -> !rings) in
  List.concat_map ring_events rs
  |> List.sort (fun a b ->
         let c = compare a.e_ts b.e_ts in
         if c <> 0 then c else compare a.e_domain b.e_domain)

let recorded_total () =
  let rs = Mutex.protect rings_mutex (fun () -> !rings) in
  List.fold_left (fun acc r -> acc + r.r_total) 0 rs

let event_args e = (e.e_a1, e.e_a2, e.e_a3)

let trace_provider () =
  List.map
    (fun e ->
      Telemetry.Json.Obj
        [
          ("name", Telemetry.Json.String (Ev.name e.e_kind));
          ("cat", Telemetry.Json.String "flight");
          ("ph", Telemetry.Json.String "i");
          ("ts", Telemetry.Json.Float (float_of_int e.e_ts /. 1000.0));
          ("pid", Telemetry.Json.Int 1);
          ("tid", Telemetry.Json.Int e.e_domain);
          ("s", Telemetry.Json.String "t");
          ( "args",
            Telemetry.Json.Obj
              [
                ("a1", Telemetry.Json.Int e.e_a1);
                ("a2", Telemetry.Json.Int e.e_a2);
                ("a3", Telemetry.Json.Int e.e_a3);
              ] );
        ])
    (events ())

let enable ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Flight.enable: capacity must be >= 1";
  ring_capacity := capacity;
  reset ();
  if not !provider_registered then begin
    provider_registered := true;
    Telemetry.register_trace_provider trace_provider
  end;
  if not !gc_alarm_installed then begin
    gc_alarm_installed := true;
    ignore (Gc.create_alarm (fun () -> !gc_alarm_hook ()) : Gc.alarm)
  end;
  flight_on := true

let disable () = flight_on := false

(* ------------------------------------------------------------------ *)
(* Crash dumps                                                        *)
(* ------------------------------------------------------------------ *)

let schema_version = 1

let to_json ?(extra = []) ~reason ~seed () =
  let rs = Mutex.protect rings_mutex (fun () -> !rings) in
  let rs = List.sort (fun a b -> compare a.r_domain b.r_domain) rs in
  let domain_json r =
    let cap = Array.length r.r_slots / stride in
    Telemetry.Json.Obj
      [
        ("domain", Telemetry.Json.Int r.r_domain);
        ("recorded", Telemetry.Json.Int r.r_total);
        ("dropped", Telemetry.Json.Int (max 0 (r.r_total - cap)));
        ( "events",
          Telemetry.Json.List
            (List.map
               (fun e ->
                 Telemetry.Json.List
                   [
                     Telemetry.Json.Int e.e_ts;
                     Telemetry.Json.Int (Ev.code e.e_kind);
                     Telemetry.Json.Int e.e_a1;
                     Telemetry.Json.Int e.e_a2;
                     Telemetry.Json.Int e.e_a3;
                   ])
               (ring_events r)) );
      ]
  in
  Telemetry.Json.Obj
    ([
       ("crashdump", Telemetry.Json.Int schema_version);
       ("reason", Telemetry.Json.String reason);
       ("seed", Telemetry.Json.Int seed);
       ("now_ns", Telemetry.Json.Int (Telemetry.now_ns ()));
       ("capacity", Telemetry.Json.Int !ring_capacity);
       ("counters", Telemetry.counters_json (Telemetry.snapshot ()));
       ("domains", Telemetry.Json.List (List.map domain_json rs));
     ]
    @ extra)

let write_crashdump ?path ?extra ~reason ~seed () =
  let path =
    match path with
    | Some p -> p
    | None -> Printf.sprintf "crashdump-%d.json" seed
  in
  let j = to_json ?extra ~reason ~seed () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Telemetry.Json.output oc j;
      output_char oc '\n');
  path

type dump = {
  d_reason : string;
  d_seed : int;
  d_capacity : int;
  d_counters : (string * Telemetry.Json.t) list;
  d_domains : (int * int * event list) list;
      (* (domain id, dropped count, events oldest-first) *)
}

exception Bad_dump of string

let () =
  Printexc.register_printer (function
    | Bad_dump m -> Some (Printf.sprintf "Flight.Bad_dump(%s)" m)
    | _ -> None)

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_dump m)) fmt

let json_int = function Telemetry.Json.Int i -> i | _ -> bad "expected int"

let dump_of_json j =
  let member k =
    match Telemetry.Json.member k j with
    | Some v -> v
    | None -> bad "missing %S" k
  in
  (match Telemetry.Json.member "crashdump" j with
  | Some (Telemetry.Json.Int _) -> ()
  | _ -> bad "not a crash dump (no \"crashdump\" field)");
  let reason =
    match member "reason" with Telemetry.Json.String s -> s | _ -> bad "reason"
  in
  let counters =
    match Telemetry.Json.member "counters" j with
    | Some (Telemetry.Json.Obj kvs) -> kvs
    | _ -> []
  in
  let domain_of = function
    | Telemetry.Json.Obj _ as dj ->
      let m k =
        match Telemetry.Json.member k dj with
        | Some v -> v
        | None -> bad "domain entry missing %S" k
      in
      let events =
        match m "events" with
        | Telemetry.Json.List evs ->
          List.map
            (function
              | Telemetry.Json.List
                  [
                    Telemetry.Json.Int ts;
                    Telemetry.Json.Int code;
                    Telemetry.Json.Int a1;
                    Telemetry.Json.Int a2;
                    Telemetry.Json.Int a3;
                  ] -> (
                match Ev.of_code code with
                | Some kind ->
                  {
                    e_domain = json_int (m "domain");
                    e_ts = ts;
                    e_kind = kind;
                    e_a1 = a1;
                    e_a2 = a2;
                    e_a3 = a3;
                  }
                | None -> bad "unknown event code %d" code)
              | _ -> bad "malformed event tuple")
            evs
        | _ -> bad "events"
      in
      (json_int (m "domain"), json_int (m "dropped"), events)
    | _ -> bad "malformed domain entry"
  in
  let domains =
    match member "domains" with
    | Telemetry.Json.List ds -> List.map domain_of ds
    | _ -> bad "domains"
  in
  {
    d_reason = reason;
    d_seed = json_int (member "seed");
    d_capacity = json_int (member "capacity");
    d_counters = counters;
    d_domains = domains;
  }

let load path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  dump_of_json (Telemetry.Json.of_string s)

let dump_events d =
  List.concat_map (fun (_, _, evs) -> evs) d.d_domains
  |> List.sort (fun a b ->
         let c = compare a.e_ts b.e_ts in
         if c <> 0 then c else compare a.e_domain b.e_domain)

(* ------------------------------------------------------------------ *)
(* Contention heatmap                                                 *)
(* ------------------------------------------------------------------ *)

(* Aggregation of flight-recorder contention events into per-level ×
   key-bucket hotspot tables.  Node identity is (level, bucket): depth
   from the root and the root-child index the descent took — the root
   separators genuinely partition the key space, so the bucket is a real
   key range.  Level/bucket -1 marks hinted-leaf events (no descent). *)

let heat_classes = [| "validation_fail"; "upgrade_fail"; "split" |]

type heat = {
  heat_cells : ((int * int) * int array) list;
      (* ((level, bucket), counts indexed like [heat_classes]), sorted *)
  heat_restarts : int;
  heat_fallbacks : int;
  heat_lock_waits : int;
  heat_lock_wait_ns : int; (* summed measured wait of contended writes *)
}

let heat_class_of_kind = function
  | Ev.Validation_fail -> Some 0
  | Ev.Upgrade_fail -> Some 1
  | Ev.Split -> Some 2
  | _ -> None

(* The counts row of [key], added zeroed on first use. *)
let heat_row tbl key =
  match Hashtbl.find_opt tbl key with
  | Some row -> row
  | None ->
    let row = Array.make (Array.length heat_classes) 0 in
    Hashtbl.add tbl key row;
    row

let sorted_rows tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let heat_of_events evs =
  let cells = Hashtbl.create 32 in
  let restarts = ref 0 in
  let fallbacks = ref 0 in
  let lock_waits = ref 0 in
  let lock_wait_ns = ref 0 in
  List.iter
    (fun e ->
      match e.e_kind with
      | Ev.Restart -> incr restarts
      | Ev.Fallback -> incr fallbacks
      | Ev.Lock_wait ->
        incr lock_waits;
        lock_wait_ns := !lock_wait_ns + e.e_a1
      | k -> (
        match heat_class_of_kind k with
        | None -> ()
        | Some cls ->
          let row = heat_row cells (e.e_a1, e.e_a2) in
          row.(cls) <- row.(cls) + 1))
    evs;
  {
    heat_cells = sorted_rows cells;
    heat_restarts = !restarts;
    heat_fallbacks = !fallbacks;
    heat_lock_waits = !lock_waits;
    heat_lock_wait_ns = !lock_wait_ns;
  }

(* Per-level rollup of the tagged cells, sorted by level (level -1 =
   hinted-leaf events, printed as "hint"). *)
let heat_levels h =
  let levels = Hashtbl.create 8 in
  List.iter
    (fun ((level, _), counts) ->
      let row = heat_row levels level in
      Array.iteri (fun i c -> row.(i) <- row.(i) + c) counts)
    h.heat_cells;
  sorted_rows levels

let hottest_level h =
  List.fold_left
    (fun best (level, counts) ->
      let total = Array.fold_left ( + ) 0 counts in
      match best with
      | Some (_, bt) when bt >= total -> best
      | _ -> if total > 0 then Some (level, total) else best)
    None (heat_levels h)
  |> Option.map fst

let heat_total h =
  List.fold_left
    (fun acc (_, counts) -> acc + Array.fold_left ( + ) 0 counts)
    0 h.heat_cells

let level_label level = if level < 0 then "hint" else string_of_int level

let pp_heat fmt h =
  if
    heat_total h = 0 && h.heat_restarts = 0 && h.heat_fallbacks = 0
    && h.heat_lock_waits = 0
  then Format.fprintf fmt "no contention events"
  else begin
    Format.fprintf fmt "@[<v>per-level contention:@,";
    Format.fprintf fmt "  %-6s %12s %12s %12s@," "level" "validation"
      "upgrade" "split";
    List.iter
      (fun (level, counts) ->
        Format.fprintf fmt "  %-6s %12d %12d %12d@," (level_label level)
          counts.(0) counts.(1) counts.(2))
      (heat_levels h);
    (match hottest_level h with
    | Some l -> Format.fprintf fmt "hottest level: %s@," (level_label l)
    | None -> ());
    let hot_cells =
      List.filter
        (fun ((level, _), _) -> level >= 0)
        h.heat_cells
      |> List.sort (fun (_, a) (_, b) ->
             compare
               (Array.fold_left ( + ) 0 b)
               (Array.fold_left ( + ) 0 a))
    in
    (match hot_cells with
    | [] -> ()
    | _ ->
      Format.fprintf fmt "hot cells (level, key bucket):@,";
      List.iteri
        (fun i ((level, bucket), counts) ->
          if i < 8 then
            Format.fprintf fmt "  L%d b%-4d v=%d u=%d s=%d@," level bucket
              counts.(0) counts.(1) counts.(2))
        hot_cells);
    Format.fprintf fmt
      "untagged: restarts=%d fallbacks=%d lock_waits=%d (%.3f ms waited)@]"
      h.heat_restarts h.heat_fallbacks h.heat_lock_waits
      (float_of_int h.heat_lock_wait_ns /. 1e6)
  end

let heat_to_json h =
  Telemetry.Json.Obj
    [
      ( "classes",
        Telemetry.Json.List
          (Array.to_list
             (Array.map (fun c -> Telemetry.Json.String c) heat_classes)) );
      ( "cells",
        Telemetry.Json.List
          (List.map
             (fun ((level, bucket), counts) ->
               Telemetry.Json.Obj
                 [
                   ("level", Telemetry.Json.Int level);
                   ("bucket", Telemetry.Json.Int bucket);
                   ( "counts",
                     Telemetry.Json.List
                       (Array.to_list
                          (Array.map (fun i -> Telemetry.Json.Int i) counts)) );
                 ])
             h.heat_cells) );
      ("restarts", Telemetry.Json.Int h.heat_restarts);
      ("fallbacks", Telemetry.Json.Int h.heat_fallbacks);
      ("lock_waits", Telemetry.Json.Int h.heat_lock_waits);
      ("lock_wait_ns", Telemetry.Json.Int h.heat_lock_wait_ns);
    ]
