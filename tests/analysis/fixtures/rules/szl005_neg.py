# szops-lint-scope: ops-module
"""SZL005 negative: op module declaring its error-propagation class."""

ERROR_PROPAGATION = {"block_count": "computation"}


def block_count(blocks):
    return len(blocks)
