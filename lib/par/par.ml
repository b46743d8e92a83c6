let cpu_count () = Domain.recommended_domain_count ()

module Pool = struct
  type t = {
    jobs : int;
    mutable domains : unit Domain.t list;
    mutable nspawned : int;
    q : (unit -> unit) Queue.t;
    qm : Mutex.t;
    qcv : Condition.t;
    mutable stop : bool;
    (* queued tasks plus tasks currently executing on a worker domain —
       the number of tasks that could use a worker right now, summed over
       every concurrent batch.  Tasks the submitting domain runs itself
       (the inline task, helper-drained tasks) never count. *)
    mutable demand : int;
  }

  let jobs p = p.jobs

  let spawned p =
    Mutex.lock p.qm;
    let n = p.nspawned in
    Mutex.unlock p.qm;
    n

  let rec worker p =
    Mutex.lock p.qm;
    while Queue.is_empty p.q && not p.stop do
      Condition.wait p.qcv p.qm
    done;
    if Queue.is_empty p.q then Mutex.unlock p.qm (* stop, queue drained *)
    else begin
      let task = Queue.pop p.q in
      Mutex.unlock p.qm;
      task ();
      Mutex.lock p.qm;
      p.demand <- p.demand - 1;
      Mutex.unlock p.qm;
      worker p
    end

  (* OCaml 5 runs at most 128 domains at once; 63 workers leave the
     rest to the submitters (the server's main domain and its executors) *)
  let max_jobs = 64

  let create ~jobs =
    let jobs = max 1 (min max_jobs jobs) in
    {
      jobs;
      domains = [];
      nspawned = 0;
      q = Queue.create ();
      qm = Mutex.create ();
      qcv = Condition.create ();
      stop = false;
      demand = 0;
    }

  (* Workers spawn lazily, on the first batch that can use them, and never
     more than the {e total outstanding} demand warrants: with concurrent
     submitters the target is [min (jobs-1) demand] where [demand] counts
     every batch's queued-or-worker-running tasks, not just the current
     batch's — two 2-task batches on a jobs=4 pool get two workers, not
     one.  A pool whose batches all run inline (jobs = 1 or n = 1) spawns
     none.  Called with [p.qm] held; never spawns after [shutdown] began
     (the submitter's helper drain still completes such a batch). *)
  let ensure_workers p =
    let want = if p.stop then 0 else min (p.jobs - 1) p.demand in
    while p.nspawned < want do
      p.nspawned <- p.nspawned + 1;
      p.domains <-
        Domain.spawn (fun () ->
            (* one span per worker lifetime: in a trace, the gap between
               this span and the pool.task spans inside it is idle time,
               which is exactly the domain-utilization picture *)
            Obs.span ~name:"pool.worker" (fun () -> worker p))
        :: p.domains
    done

  (* The domain list and spawn count are only read or written under [qm]:
     a concurrent [spawned] probe or submitter's [ensure_workers] must
     never observe the fields mid-teardown.  The joins happen outside the
     lock (a worker draining the queue may be arbitrarily slow), on a
     snapshot taken under it. *)
  let shutdown p =
    Mutex.lock p.qm;
    p.stop <- true;
    let doms = p.domains in
    p.domains <- [];
    Condition.broadcast p.qcv;
    Mutex.unlock p.qm;
    List.iter Domain.join doms;
    Mutex.lock p.qm;
    p.nspawned <- 0;
    Mutex.unlock p.qm

  let with_pool ~jobs f =
    let p = create ~jobs in
    Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)

  let run p n f =
    if n > 0 then begin
      if p.jobs = 1 || n = 1 then
        for i = 0 to n - 1 do
          f i
        done
      else begin
        let jm = Mutex.create () and jcv = Condition.create () in
        let pending = ref n in
        let failure = Atomic.make None in
        let task i () =
          (try f i
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             ignore (Atomic.compare_and_set failure None (Some (e, bt))));
          Mutex.lock jm;
          decr pending;
          if !pending = 0 then Condition.signal jcv;
          Mutex.unlock jm
        in
        (* Tracing wrapper: a span per task, recording how long the task
           sat in the queue before a domain picked it up (run time is the
           span itself), plus queue-wait/run histograms under live
           metrics.  Tasks run by the submitting domain never queue, so
           their wait is 0 by construction. *)
        let wrap ~enqueued i =
          if not (Obs.enabled () || Obs.counters_enabled ()) then task i
          else fun () ->
            let wait =
              match enqueued with
              | None -> 0.
              | Some t -> Obs.Clock.now () -. t
            in
            Obs.count "pool.queue_wait_ns" (int_of_float (wait *. 1e9));
            Obs.observe "pool.queue_wait_seconds" wait;
            let (), dt =
              Obs.timed_span ~name:"pool.task"
                ~attrs:
                  [
                    ("task", Obs.Int i);
                    ("queue_wait_us", Obs.Float (wait *. 1e6));
                  ]
                (task i)
            in
            Obs.observe "pool.task_run_seconds" dt
        in
        Mutex.lock p.qm;
        let tq =
          if Obs.enabled () || Obs.counters_enabled () then
            Some (Obs.Clock.now ())
          else None
        in
        for i = 1 to n - 1 do
          Queue.push (wrap ~enqueued:tq i) p.q
        done;
        p.demand <- p.demand + (n - 1);
        ensure_workers p;
        Condition.broadcast p.qcv;
        Mutex.unlock p.qm;
        wrap ~enqueued:None 0 ();
        (* The submitter helps drain the queue instead of blocking.  The
           queue is shared: under concurrent batches the helper may pop a
           {e sibling batch's} task — that is by design and safe, because
           every task closure carries its own batch's completion counter
           and failure slot, so results and exceptions always land in the
           batch that submitted them; helping a sibling only speeds it
           up.  A popped task no longer needs a worker domain, so the
           demand drops at pop time (workers, by contrast, hold their
           demand until the task completes — they stay busy). *)
        let rec help () =
          Mutex.lock p.qm;
          let t =
            if Queue.is_empty p.q then None
            else begin
              p.demand <- p.demand - 1;
              Some (Queue.pop p.q)
            end
          in
          Mutex.unlock p.qm;
          match t with
          | Some t ->
              t ();
              help ()
          | None -> ()
        in
        help ();
        Mutex.lock jm;
        while !pending > 0 do
          Condition.wait jcv jm
        done;
        Mutex.unlock jm;
        match Atomic.get failure with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ()
      end
    end

  let map p f xs =
    match xs with
    | [] -> []
    | [ x ] -> [ f x ]
    | _ ->
        let arr = Array.of_list xs in
        let res = Array.make (Array.length arr) None in
        run p (Array.length arr) (fun i -> res.(i) <- Some (f arr.(i)));
        Array.to_list
          (Array.map
             (function Some r -> r | None -> assert false)
             res)

  (* Determinism argument: indices are handed out in increasing order, and
     a started task always runs to completion, so when a match at index [i]
     is recorded every index [< i] either already ran or is running and
     will still be able to lower [best].  Indices above the current best
     are skipped.  The final [best] is therefore the smallest matching
     index, independent of scheduling. *)
  let find_first ?found p f xs =
    match xs with
    | [] -> None
    | _ ->
        let arr = Array.of_list xs in
        let n = Array.length arr in
        let res = Array.make n None in
        let best = Atomic.make max_int in
        run p n (fun i ->
            if i < Atomic.get best then
              match f arr.(i) with
              | None -> ()
              | Some r ->
                  res.(i) <- Some r;
                  (match found with
                  | Some flag -> Atomic.set flag true
                  | None -> ());
                  let rec lower () =
                    let b = Atomic.get best in
                    if i < b && not (Atomic.compare_and_set best b i) then lower ()
                  in
                  lower ());
        let b = Atomic.get best in
        if b = max_int then None else res.(b)
end
