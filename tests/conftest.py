import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def camera_reads(monkeypatch):
    """[(path, thread)] of every camera file parsed during the test:
    read_ten parses through the tensors module's parse_ten, and scenegen
    binds its own."""
    from bevlab import scenegen, tensors
    reads = []
    parse = tensors.parse_ten

    def counted(raw, path):
        if os.path.basename(path).startswith("cam_"):
            reads.append((str(path), threading.current_thread()))
        return parse(raw, path)

    for module in (tensors, scenegen):
        monkeypatch.setattr(module, "parse_ten", counted, raising=False)
    return reads
