(* Deterministic failpoint registry.

   Shape of the fast path: [fire] loads one [bool Atomic.t] and branches —
   the registry disabled costs the same as a disabled telemetry site, so
   the points can live inside the optimistic descent and the lock protocol
   without perturbing the measurements they exist to stress.

   Determinism: each domain owns a private xorshift stream (via
   [Domain.DLS]) seeded from the configured seed mixed with the domain id
   — the same splitmix-style mixing the telemetry sampler uses.  A fixed
   seed therefore replays the same per-domain decision sequence; across
   domains the interleaving still varies with the schedule, which is
   exactly what a chaos run wants (decisions deterministic, arrival order
   adversarial).

   Fired counters are global atomics: firings are rare by construction
   (1-in-rate), so the shared increment costs nothing measurable and keeps
   the counts exact across domains. *)

module Point = struct
  type t =
    | Olock_validate_force_fail
    | Btree_descent_yield
    | Btree_split_delay
    | Pool_job_raise
    | Io_read_truncate
    | Server_conn_drop
    | Server_phase_busy
    | Server_flip_fail
    | Wal_write_short
    | Wal_fsync_fail
    | Wal_recover_corrupt

  let all =
    [
      Olock_validate_force_fail; Btree_descent_yield; Btree_split_delay;
      Pool_job_raise; Io_read_truncate; Server_conn_drop; Server_phase_busy;
      Server_flip_fail; Wal_write_short; Wal_fsync_fail; Wal_recover_corrupt;
    ]

  let index = function
    | Olock_validate_force_fail -> 0
    | Btree_descent_yield -> 1
    | Btree_split_delay -> 2
    | Pool_job_raise -> 3
    | Io_read_truncate -> 4
    | Server_conn_drop -> 5
    | Server_phase_busy -> 6
    | Server_flip_fail -> 7
    | Wal_write_short -> 8
    | Wal_fsync_fail -> 9
    | Wal_recover_corrupt -> 10

  let count = List.length all

  let name = function
    | Olock_validate_force_fail -> "olock.validate.force_fail"
    | Btree_descent_yield -> "btree.descent.yield"
    | Btree_split_delay -> "btree.split.delay"
    | Pool_job_raise -> "pool.job.raise"
    | Io_read_truncate -> "io.read.truncate"
    | Server_conn_drop -> "server.conn.drop"
    | Server_phase_busy -> "server.phase.busy"
    | Server_flip_fail -> "server.flip.fail"
    | Wal_write_short -> "wal.write.short"
    | Wal_fsync_fail -> "wal.fsync.fail"
    | Wal_recover_corrupt -> "wal.recover.corrupt"

  let of_name s = List.find_opt (fun p -> name p = s) all
end

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected p -> Some (Printf.sprintf "Chaos.Injected(%s)" p)
    | _ -> None)

(* Master switch: the only thing the disabled fast path touches. *)
let armed = Atomic.make false

(* Per-point 1-in-rate firing probability; 0 = point disarmed.  Plain array
   written only by [configure]/[disable] (quiescent code) and read racily by
   firing sites — a stale read fires or skips one event, which is harmless. *)
let rates = Array.make Point.count 0
let fired_counts = Array.init Point.count (fun _ -> Atomic.make 0)
let current_seed = ref 0

(* splitmix-style seed mixing, one stream per domain *)
let mix seed d =
  let z = (seed + ((d + 1) * 0x9E3779B9)) land max_int in
  let z = z lxor (z lsr 16) in
  let z = z * 0x85EBCA6B land max_int in
  let z = z lxor (z lsr 13) in
  let z = z * 0xC2B2AE35 land max_int in
  let z = z lxor (z lsr 16) in
  if z = 0 then 0x2545F491 else z

(* The DLS slot holds the configuration epoch the stream was seeded under,
   so a re-[configure] reseeds every domain's stream on its next draw. *)
type stream = { mutable st_epoch : int; mutable st_rng : int }

let epoch = Atomic.make 0

let stream_key =
  Domain.DLS.new_key (fun () -> { st_epoch = -1; st_rng = 1 })

let rng_next st =
  let r = st.st_rng in
  let r = r lxor (r lsl 13) land max_int in
  let r = r lxor (r lsr 7) in
  let r = r lxor (r lsl 17) land max_int in
  let r = if r = 0 then 0x2545F491 else r in
  st.st_rng <- r;
  r

let active () = Atomic.get armed
let seed () = !current_seed

let configure ?(seed = 1) points =
  List.iter
    (fun (p, rate) ->
      if rate < 1 then
        invalid_arg
          (Printf.sprintf "Chaos.configure: %s: rate must be >= 1 (got %d)"
             (Point.name p) rate))
    points;
  Array.fill rates 0 Point.count 0;
  List.iter (fun (p, rate) -> rates.(Point.index p) <- rate) points;
  Array.iter (fun c -> Atomic.set c 0) fired_counts;
  current_seed := seed;
  Atomic.incr epoch;
  Atomic.set armed (points <> [])

let disable () = Atomic.set armed false

(* Observability hook, called on every firing (cold path by construction:
   firings are 1-in-rate).  The chaos layer depends on nothing, so outside
   observers — the flight recorder — are wired in by the binaries. *)
let fire_hook : (Point.t -> unit) option ref = ref None
let set_fire_hook h = fire_hook := h

let fire p =
  if not (Atomic.get armed) then false
  else begin
    let rate = Array.unsafe_get rates (Point.index p) in
    if rate = 0 then false
    else begin
      let st = Domain.DLS.get stream_key in
      let e = Atomic.get epoch in
      if st.st_epoch <> e then begin
        st.st_epoch <- e;
        st.st_rng <- mix !current_seed ((Domain.self () :> int))
      end;
      let hit = rng_next st mod rate = 0 in
      if hit then begin
        Atomic.incr fired_counts.(Point.index p);
        match !fire_hook with Some f -> f p | None -> ()
      end;
      hit
    end
  end

let inject p = if fire p then raise (Injected (Point.name p))

let yield_if p =
  if fire p then
    (* long enough to push a concurrent writer through its whole critical
       section, short enough to keep chaos runs fast *)
    for _ = 1 to 512 do
      Domain.cpu_relax ()
    done

let fired p = Atomic.get fired_counts.(Point.index p)
let total_fired () = Array.fold_left (fun a c -> a + Atomic.get c) 0 fired_counts

let armed_points () =
  if not (Atomic.get armed) then []
  else
    List.filter_map
      (fun p ->
        let rate = rates.(Point.index p) in
        if rate > 0 then Some (p, rate) else None)
      Point.all

let spec_help =
  "seed=N,points=P1[:RATE1]+P2[:RATE2]+...  (point names: \
   olock.validate.force_fail btree.descent.yield btree.split.delay \
   pool.job.raise io.read.truncate server.conn.drop server.phase.busy \
   wal.write.short wal.fsync.fail wal.recover.corrupt, \
   or 'all'; RATE fires 1-in-RATE, default 16)"

let default_rate = 16

let apply_spec spec =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let parse_point entry =
    let name, rate =
      match String.index_opt entry ':' with
      | None -> (entry, default_rate)
      | Some i -> (
        let n = String.sub entry 0 i in
        let r = String.sub entry (i + 1) (String.length entry - i - 1) in
        match int_of_string_opt r with
        | Some r when r >= 1 -> (n, r)
        | _ -> (n, -1))
    in
    if rate < 1 then Error (Printf.sprintf "bad rate in %S" entry)
    else if name = "all" then Ok (List.map (fun p -> (p, rate)) Point.all)
    else
      match Point.of_name name with
      | Some p -> Ok [ (p, rate) ]
      | None ->
        Error
          (Printf.sprintf "unknown failpoint %S (known: %s)" name
             (String.concat " " (List.map Point.name Point.all)))
  in
  let parse_field (seed, points) field =
    let* seed, points = Ok (seed, points) in
    match String.index_opt field '=' with
    | None -> Error (Printf.sprintf "expected key=value, got %S" field)
    | Some i -> (
      let key = String.sub field 0 i in
      let value = String.sub field (i + 1) (String.length field - i - 1) in
      match key with
      | "seed" -> (
        match int_of_string_opt value with
        | Some s -> Ok (Some s, points)
        | None -> Error (Printf.sprintf "bad seed %S" value))
      | "points" ->
        let entries = String.split_on_char '+' value in
        let rec collect acc = function
          | [] -> Ok (List.concat (List.rev acc))
          | e :: rest ->
            let* ps = parse_point e in
            collect (ps :: acc) rest
        in
        let* ps = collect [] entries in
        Ok (seed, points @ ps)
      | _ -> Error (Printf.sprintf "unknown key %S (want seed= or points=)" key))
  in
  let fields =
    List.filter (fun f -> f <> "") (String.split_on_char ',' (String.trim spec))
  in
  if fields = [] then Error "empty chaos spec"
  else
    let rec go acc = function
      | [] -> Ok acc
      | f :: rest ->
        let* acc = parse_field acc f in
        go acc rest
    in
    let* seed, points = go (None, []) fields in
    if points = [] then Error "chaos spec arms no points (add points=...)"
    else begin
      configure ?seed points;
      Ok ()
    end

let pp_fired fmt () =
  if total_fired () > 0 then begin
    Format.fprintf fmt "@[<v>chaos (seed %d):@," !current_seed;
    List.iter
      (fun p ->
        let n = fired p in
        if n > 0 then Format.fprintf fmt "  %-28s fired %d@," (Point.name p) n)
      Point.all;
    Format.fprintf fmt "@]"
  end
