"""Fixture daemon: the op table and the protocol doc agree exactly."""


class MatchingDaemon:
    def _handle_ping(self, frame, session):
        return {"ok": True}

    def _handle_flush(self, frame, session):
        return {"ok": True, "flushed": True}

    OPS = {
        "ping": _handle_ping,
        "flush": _handle_flush,
    }
