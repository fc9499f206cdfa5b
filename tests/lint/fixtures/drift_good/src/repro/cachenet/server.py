"""Fixture cache server: the op table agrees with its protocol doc."""


class CacheServer:
    def _handle_ping(self, frame, session):
        return {"ok": True}

    def _handle_get(self, frame, session):
        return {"ok": True, "record": None}

    OPS = {
        "ping": _handle_ping,
        "get": _handle_get,
    }
