"""Fixture events: wire fields drifted from the catalogue table."""

from dataclasses import dataclass


@dataclass(frozen=True)
class ServiceEvent:
    def to_dict(self):
        return {"event": type(self).__name__, **self.__dict__}


@dataclass(frozen=True)
class TaskDone(ServiceEvent):
    index: int
    record: dict


@dataclass(frozen=True)
class TaskSkipped(ServiceEvent):
    index: int
