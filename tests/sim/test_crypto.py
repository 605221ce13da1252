"""Tests for simulated signing and stable hashing."""

import pytest

from repro.errors import SignatureError
from repro.sim import Message, SigningAuthority, stable_hash


class TestSigning:
    def setup_method(self):
        self.authority = SigningAuthority()
        self.authority.register("alice")
        self.authority.register("bank")
        self.msg = Message(
            src="alice", dst="bank", kind="report", payload={"total": 42}
        )

    def test_sign_and_verify(self):
        signed = self.authority.sign("alice", self.msg)
        assert signed.signature is not None
        assert self.authority.verify("alice", signed)

    def test_unsigned_fails_verification(self):
        assert not self.authority.verify("alice", self.msg)

    def test_tampered_payload_fails(self):
        signed = self.authority.sign("alice", self.msg)
        tampered = signed.altered(total=0)
        assert not self.authority.verify("alice", tampered)

    def test_wrong_signer_fails(self):
        signed = self.authority.sign("alice", self.msg)
        assert not self.authority.verify("bank", signed)

    def test_unknown_key_raises(self):
        with pytest.raises(SignatureError, match="no key"):
            self.authority.sign("mallory", self.msg)

    def test_require_valid(self):
        signed = self.authority.sign("alice", self.msg)
        self.authority.require_valid("alice", signed)
        with pytest.raises(SignatureError, match="failed"):
            self.authority.require_valid("alice", self.msg)

    def test_registration_idempotent(self):
        self.authority.register("alice")
        signed = self.authority.sign("alice", self.msg)
        assert self.authority.verify("alice", signed)

    def test_is_registered(self):
        assert self.authority.is_registered("alice")
        assert not self.authority.is_registered("mallory")

    def test_signature_covers_author(self):
        signed = self.authority.sign("alice", self.msg)
        relabelled = Message(
            src=signed.src,
            dst=signed.dst,
            kind=signed.kind,
            payload=signed.payload,
            author="eve",
            msg_id=signed.msg_id,
            signature=signed.signature,
        )
        assert not self.authority.verify("alice", relabelled)


class TestStableHash:
    def test_deterministic(self):
        value = {"b": 2, "a": (1, 2, 3)}
        assert stable_hash(value) == stable_hash({"a": (1, 2, 3), "b": 2})

    def test_distinguishes_values(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_normalises_integral_floats(self):
        assert stable_hash({"x": 2.0}) == stable_hash({"x": 2})

    def test_handles_sets(self):
        assert stable_hash({"tags": {3, 1, 2}}) == stable_hash({"tags": {1, 2, 3}})

    def test_nested_structures(self):
        one = {"table": {"d": (1.0, ("a", "b")), "e": [frozenset({"x"})]}}
        two = {"table": {"e": [frozenset({"x"})], "d": (1, ("a", "b"))}}
        assert stable_hash(one) == stable_hash(two)

    def test_sequence_order_matters(self):
        assert stable_hash([1, 2]) != stable_hash([2, 1])

    def test_nan_hashes_as_an_atom(self):
        digest = stable_hash({"a": float("nan")})
        assert digest == stable_hash({"a": float("nan")})
        assert digest != stable_hash({"a": 0.0})

    def test_infinities_hash_as_atoms(self):
        assert stable_hash([float("inf")]) != stable_hash([float("-inf")])
        assert stable_hash({"a": float("inf"), "b": 2.0}) == stable_hash(
            {"b": 2, "a": float("inf")}
        )
