"""Reference point-queue kernels: the junction rules as written with ``min`` and ``max``.

``pqsim.point_queue._step_with_volumes`` and ``pqsim.approx._step_with_volumes``
spell each ``min``/``max`` as a conditional expression with the builtins' tie
rules (the first argument wins a tie).  These plain forms are the oracle
they are pinned against, value and type, in ``test_kernel_identity``; the
run-loop replay in ``test_run_loop`` steps on them and calls no ``pqsim``
step function.  The two advance forms return (lam_next, inflow, outflow)
as volumes; a supply volume of None is unlimited.  ``_ref_ltm_advance`` is
the LTM kernel reading F and G afresh four times a step: the oracle of the
kernel that carries a step's later reads over to the next step.
"""


def _ref_demand_volume(model, lam, feed):
    return feed + lam if model.demand_includes_feed else lam


def _ref_supply_volume(model, lam, service, capacity):
    if capacity is None:
        return None
    room = capacity - lam
    if model.supply_includes_service:
        return None if service is None else service + room
    return room


def _ref_advance(model, lam, feed, service, capacity, clamp):
    svol = _ref_supply_volume(model, lam, service, capacity)
    inflow = feed if svol is None else min(feed, svol)
    dvol = _ref_demand_volume(model, lam, feed)
    outflow = min(dvol, service)
    if model.demand_includes_feed:
        drained = max(-feed, lam - service)
    else:
        drained = max(0, lam - service)
    lam_next = inflow + drained
    if clamp:
        lam_next = max(lam_next, 0)
        if capacity is not None:
            lam_next = min(lam_next, capacity)
    return lam_next, inflow, outflow


def _ref_eps_advance(model, lam, feed, service, capacity, ratio, clamp):
    if ratio == 1:
        return _ref_advance(model, lam, feed, service, capacity, clamp)
    relax_out = lam * ratio
    dvol = feed + relax_out if model.demand_includes_feed else relax_out
    if capacity is None:
        svol = None
    else:
        relax_in = (capacity - lam) * ratio
        svol = service + relax_in if model.supply_includes_service else relax_in
    inflow = feed if svol is None else min(feed, svol)
    outflow = min(dvol, service)
    lam_next = lam + (inflow - outflow)
    if clamp:
        lam_next = max(lam_next, 0)
        if capacity is not None:
            lam_next = min(lam_next, capacity)
    return lam_next, inflow, outflow


def _ref_ltm_advance(params, dt, arrivals, departures, rates):
    """``pqsim.link_models._ltm_advance`` before it carried reads over: all four delayed reads every step.

    F and G at t - T1 (t - T2) and one step later come from the histories
    from t = 0 for s > 0 and the seed for s <= 0.
    """
    t1, t2, storage, initial = params.free_flow_time, params.wave_time, params.storage, params.initial
    seed_outflow = (storage - initial) / t2  # the slope of G's virtual seed
    cap_volume = params.capacity * dt
    f, g = arrivals[-1], departures[-1]
    last = len(arrivals) - 1  # index of F(t) and G(t) in the histories
    queues, inflows, outflows = [], [], []
    for delta, sigma in rates:
        t = last * dt
        a_lo, a_hi = t - t1, t + dt - t1
        # F's seed: the inflow ramp ending at F(0) = initial content.
        if a_lo <= 0:
            seed = initial * (1.0 + a_lo / t1)
            a_lo = seed if seed > 0.0 else 0.0
        else:
            pos = a_lo / dt
            j = int(pos)
            a_lo = f if j >= last else arrivals[j] + (pos - j) * (arrivals[j + 1] - arrivals[j])
        if a_hi <= 0:
            seed = initial * (1.0 + a_hi / t1)
            a_hi = seed if seed > 0.0 else 0.0
        else:
            pos = a_hi / dt
            j = int(pos)
            a_hi = f if j >= last else arrivals[j] + (pos - j) * (arrivals[j + 1] - arrivals[j])
        d_lo, d_hi = t - t2, t + dt - t2
        # G's seed: negative values encode the pre-simulation ramp.
        if d_lo <= 0:
            d_lo = seed_outflow * d_lo
        else:
            pos = d_lo / dt
            j = int(pos)
            d_lo = g if j >= last else departures[j] + (pos - j) * (departures[j + 1] - departures[j])
        if d_hi <= 0:
            d_hi = seed_outflow * d_hi
        else:
            pos = d_hi / dt
            j = int(pos)
            d_hi = g if j >= last else departures[j] + (pos - j) * (departures[j + 1] - departures[j])
        queue = a_lo - g
        queue = queue if queue > 0.0 else 0.0
        vacancy = d_lo + storage - f
        vacancy = vacancy if vacancy > 0.0 else 0.0
        demand = (a_hi - a_lo) + queue
        demand = cap_volume if cap_volume < demand else demand
        supply = (d_hi - d_lo) + vacancy
        supply = cap_volume if cap_volume < supply else supply
        inflow = delta * dt
        inflow = supply if supply < inflow else inflow
        outflow = sigma * dt
        outflow = outflow if outflow < demand else demand
        f += inflow
        g += outflow
        arrivals.append(f)
        departures.append(g)
        last += 1
        queues.append(queue)
        inflows.append(inflow)
        outflows.append(outflow)
    return queues, inflows, outflows
