"""Reference point-queue kernels: the junction rules as written with ``min`` and ``max``.

``pqsim.point_queue._step_with_volumes`` and ``pqsim.approx._step_with_volumes``
spell each ``min``/``max`` as a conditional expression with the builtins' tie
rules (the first argument wins a tie).  These plain forms are the oracle
they are pinned against, value and type, in ``test_kernel_identity``; the
run-loop replay in ``test_run_loop`` steps on them and calls no ``pqsim``
step function.  The two advance forms return (lam_next, inflow, outflow)
as volumes; a supply volume of None is unlimited.
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
