"""Sibling op module that dispatch.py does import."""

ERROR_PROPAGATION = {"registered_op": "exact"}


def registered_op(blocks: "SZOpsCompressed") -> "SZOpsCompressed":
    return blocks
