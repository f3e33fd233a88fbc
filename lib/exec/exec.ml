(* A hand-rolled domain pool: workers block on a condition variable until
   a task generation is published, then race over an atomic index counter.
   No dependencies beyond the stdlib — the toolchain pins no domainslib. *)

type pool = {
  target : int;  (* configured worker domains, excluding the caller *)
  mutable spawned : int;  (* workers actually running, <= target *)
  mutex : Mutex.t;
  work : Condition.t;  (* a new generation (or shutdown) is available *)
  idle : Condition.t;  (* a worker finished the current generation *)
  mutable generation : int;
  mutable task : (int -> unit) option;
  mutable total : int;
  next : int Atomic.t;
  mutable unfinished : int;  (* workers still draining the current task *)
  mutable error : exn option;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
}

type t = Sequential | Pool of pool

let sequential = Sequential

(* Which executor slot the current domain occupies: 0 for the calling
   (or any non-pool) domain, i for the pool's i-th worker. Stored in
   domain-local state so sinks can tag events with their producer. *)
let worker_slot : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let current_worker () = Domain.DLS.get worker_slot

let record_error pool e =
  Mutex.lock pool.mutex;
  if pool.error = None then pool.error <- Some e;
  Mutex.unlock pool.mutex

(* Drain the current task: claim indices until the counter runs past the
   end. Runs outside the lock; each index is claimed by exactly one
   domain, and results are written to distinct slots. *)
let drain pool f total =
  try
    let continue = ref true in
    while !continue do
      let i = Atomic.fetch_and_add pool.next 1 in
      if i >= total then continue := false else f i
    done
  with e -> record_error pool e

let worker pool =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while pool.generation = !seen && not pool.closed do
      Condition.wait pool.work pool.mutex
    done;
    if pool.closed then begin
      Mutex.unlock pool.mutex;
      running := false
    end
    else begin
      seen := pool.generation;
      let f = Option.get pool.task in
      let total = pool.total in
      Mutex.unlock pool.mutex;
      drain pool f total;
      Mutex.lock pool.mutex;
      pool.unfinished <- pool.unfinished - 1;
      if pool.unfinished = 0 then Condition.broadcast pool.idle;
      Mutex.unlock pool.mutex
    end
  done

(* Workers are spawned lazily, on first demand: a [jobs:4] runner used
   only for a 2-task map spins up one domain, not three. Called with the
   pool mutex held. A freshly spawned worker immediately blocks on that
   mutex, so it observes the published generation only after [run_pool]
   finishes setting it up. *)
let ensure_workers pool n =
  let want = min pool.target (max 0 (n - 1)) in
  while pool.spawned < want do
    let i = pool.spawned in
    pool.spawned <- i + 1;
    pool.domains <-
      Domain.spawn (fun () ->
          Domain.DLS.set worker_slot (i + 1);
          worker pool)
      :: pool.domains
  done

let create ~jobs =
  if jobs <= 1 then Sequential
  else
    Pool
      {
        target = jobs - 1;
        spawned = 0;
        mutex = Mutex.create ();
        work = Condition.create ();
        idle = Condition.create ();
        generation = 0;
        task = None;
        total = 0;
        next = Atomic.make 0;
        unfinished = 0;
        error = None;
        closed = false;
        domains = [];
      }

let jobs = function Sequential -> 1 | Pool p -> p.target + 1

let spawned_workers = function
  | Sequential -> 0
  | Pool p ->
    Mutex.lock p.mutex;
    let s = p.spawned in
    Mutex.unlock p.mutex;
    s

let shutdown = function
  | Sequential -> ()
  | Pool pool ->
    Mutex.lock pool.mutex;
    if not pool.closed then begin
      pool.closed <- true;
      Condition.broadcast pool.work;
      Mutex.unlock pool.mutex;
      List.iter Domain.join pool.domains;
      pool.domains <- []
    end
    else Mutex.unlock pool.mutex

let with_runner ~jobs f =
  let r = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown r) (fun () -> f r)

let run_pool pool n f =
  Mutex.lock pool.mutex;
  if pool.closed then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Exec.map: runner already shut down"
  end;
  ensure_workers pool n;
  pool.task <- Some f;
  pool.total <- n;
  Atomic.set pool.next 0;
  pool.error <- None;
  pool.unfinished <- pool.spawned;
  pool.generation <- pool.generation + 1;
  Condition.broadcast pool.work;
  Mutex.unlock pool.mutex;
  (* The calling domain is the pool's extra executor. *)
  drain pool f n;
  Mutex.lock pool.mutex;
  while pool.unfinished > 0 do
    Condition.wait pool.idle pool.mutex
  done;
  pool.task <- None;
  let err = pool.error in
  pool.error <- None;
  Mutex.unlock pool.mutex;
  match err with None -> () | Some e -> raise e

(* Tasks claim blocks of [auto_chunk] consecutive indices from the
   atomic counter instead of single indices, amortizing the fetch-and-add
   and the per-task cache traffic (SNIPPETS snippet 3's BLOCK
   partitioning, made dynamic). 8 blocks per executor keeps enough slack
   for load balancing while shrinking counter contention by the chunk
   factor. *)
let auto_chunk ~jobs n = max 1 (n / (8 * jobs))

let run_chunked pool n f =
  let chunk = auto_chunk ~jobs:(pool.target + 1) n in
  if chunk = 1 then run_pool pool n f
  else
    run_pool pool
      ((n + chunk - 1) / chunk)
      (fun ci ->
        let lo = ci * chunk in
        for i = lo to min n (lo + chunk) - 1 do
          f i
        done)

let iter t n f =
  match t with
  | Sequential ->
    for i = 0 to n - 1 do
      f i
    done
  | Pool pool -> if n > 0 then run_chunked pool n f

let map t n f =
  match t with
  | Sequential -> Array.init n f
  | Pool pool ->
    if n = 0 then [||]
    else begin
      (* An option array sidesteps the need for a dummy element of ['a]
         (Array.make with a forged value would corrupt flat float
         arrays). The mutex handshake at task completion publishes the
         slot writes to the calling domain. *)
      let out = Array.make n None in
      run_chunked pool n (fun i -> out.(i) <- Some (f i));
      Array.map
        (function
          | Some v -> v
          | None -> invalid_arg "Exec.map: task skipped after error")
        out
    end
