import http.client
import random

import pytest


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def connects(monkeypatch):
    """Every HTTP(S) client connection that connected, in order."""
    calls = []
    original = http.client.HTTPConnection.connect

    def connect(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", connect)
    return calls
