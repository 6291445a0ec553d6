"""FCC006 fixture: strings formatted per-event in telemetry calls."""

__all__ = ["emit"]


def emit(env, telemetry, counter, histogram, span, trace, event, flow, n):
    sid = telemetry.begin(f"link.{flow}.txq", trace, "queueing")  # FCC006
    telemetry.end(sid, trace)
    telemetry.begin("retry %s" % flow)                            # FCC006
    with span(env, "op.{}".format(flow)):                         # FCC006
        counter.inc(time=env.now)
    telemetry.instant("stall", detail=f"flow={flow}")             # FCC006
    telemetry.wait(f"credits.{flow}", trace, "credit_stall",      # FCC006
                   event)
    histogram.observe(n, time=env.now)
    allowed = f"ok.{flow}"        # formatting outside a sink is fine
    telemetry.begin(allowed, trace, "queueing")
    telemetry.instant(f"constant-free")   # no placeholder: clean
    return allowed
