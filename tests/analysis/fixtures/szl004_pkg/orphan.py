"""Sibling op module that dispatch.py forgets to import (SZL004)."""

ERROR_PROPAGATION = {"orphan_op": "exact"}


def orphan_op(blocks: "SZOpsCompressed") -> "SZOpsCompressed":
    return blocks
