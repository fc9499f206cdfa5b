"""Fixture cache server: serves `evict`, which the doc omits."""


class CacheServer:
    def _handle_ping(self, frame, session):
        return {"ok": True}

    def _handle_get(self, frame, session):
        return {"ok": True, "record": None}

    def _handle_evict(self, frame, session):
        return {"ok": True, "evicted": 1}

    OPS = {
        "ping": _handle_ping,
        "get": _handle_get,
        "evict": _handle_evict,
    }
