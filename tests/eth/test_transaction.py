"""Tests for transactions and the factory."""

import pytest

from repro.errors import TransactionError
from repro.eth.account import Account, Wallet
from repro.eth.transaction import (
    GWEI,
    INTRINSIC_GAS,
    DynamicFeeTransaction,
    Transaction,
    TransactionFactory,
    gwei,
    to_gwei,
)


class TestUnits:
    def test_gwei_conversion(self):
        assert gwei(1.0) == 10**9
        assert gwei(0.1) == 10**8
        assert to_gwei(GWEI) == 1.0

    def test_fractional_gwei_rounds(self):
        assert gwei(1.5) == 1_500_000_000


class TestTransaction:
    def test_hash_is_deterministic(self):
        a = Transaction(sender="0xaa", nonce=0, gas_price=100)
        b = Transaction(sender="0xaa", nonce=0, gas_price=100)
        assert a.hash == b.hash

    def test_hash_changes_with_price(self):
        a = Transaction(sender="0xaa", nonce=0, gas_price=100)
        b = Transaction(sender="0xaa", nonce=0, gas_price=101)
        assert a.hash != b.hash

    def test_hash_changes_with_nonce(self):
        a = Transaction(sender="0xaa", nonce=0, gas_price=100)
        b = Transaction(sender="0xaa", nonce=1, gas_price=100)
        assert a.hash != b.hash

    def test_negative_nonce_rejected(self):
        with pytest.raises(TransactionError):
            Transaction(sender="0xaa", nonce=-1, gas_price=100)

    def test_gas_limit_below_intrinsic_rejected(self):
        with pytest.raises(TransactionError):
            Transaction(sender="0xaa", nonce=0, gas_price=100, gas_limit=20_000)

    def test_bid_and_effective_price_equal_for_legacy(self):
        tx = Transaction(sender="0xaa", nonce=0, gas_price=123)
        assert tx.bid_price() == 123
        assert tx.effective_price() == 123

    def test_fee_paid_defaults_to_intrinsic_gas(self):
        tx = Transaction(sender="0xaa", nonce=0, gas_price=2)
        assert tx.fee_paid_wei() == 2 * INTRINSIC_GAS

    def test_underpriced_for_base_fee(self):
        tx = Transaction(sender="0xaa", nonce=0, gas_price=100)
        assert tx.is_underpriced_for_base_fee(101)
        assert not tx.is_underpriced_for_base_fee(100)


class TestDynamicFeeTransaction:
    def test_bid_uses_max_fee(self):
        tx = DynamicFeeTransaction(
            sender="0xaa", nonce=0, gas_price=0, max_fee=200, priority_fee=10
        )
        assert tx.bid_price() == 200
        assert tx.gas_price == 200

    def test_effective_price_is_base_plus_tip_capped(self):
        tx = DynamicFeeTransaction(
            sender="0xaa", nonce=0, gas_price=0, max_fee=200, priority_fee=10
        )
        assert tx.effective_price(base_fee=100) == 110
        assert tx.effective_price(base_fee=195) == 200  # capped at max fee

    def test_tip_above_max_rejected(self):
        with pytest.raises(TransactionError):
            DynamicFeeTransaction(
                sender="0xaa", nonce=0, gas_price=0, max_fee=100, priority_fee=200
            )

    def test_dropped_when_max_fee_below_base(self):
        tx = DynamicFeeTransaction(
            sender="0xaa", nonce=0, gas_price=0, max_fee=100, priority_fee=1
        )
        assert tx.is_underpriced_for_base_fee(101)

    def test_hash_differs_from_legacy(self):
        legacy = Transaction(sender="0xaa", nonce=0, gas_price=100)
        dynamic = DynamicFeeTransaction(
            sender="0xaa", nonce=0, gas_price=100, max_fee=100, priority_fee=0
        )
        assert legacy.hash != dynamic.hash


class TestFactory:
    def test_transfer_consumes_nonce(self, factory):
        account = Account("alice")
        tx1 = factory.transfer(account, gas_price=100)
        tx2 = factory.transfer(account, gas_price=100)
        assert (tx1.nonce, tx2.nonce) == (0, 1)

    def test_explicit_nonce_does_not_consume(self, factory):
        account = Account("bob")
        factory.transfer(account, gas_price=100, nonce=5)
        assert account.peek_nonce() == 0

    def test_replacement_bumps_price_and_keeps_identity(self, factory):
        account = Account("carol")
        original = factory.transfer(account, gas_price=1000)
        bumped = factory.replacement(original, 0.10)
        assert bumped.sender == original.sender
        assert bumped.nonce == original.nonce
        assert bumped.gas_price == 1100

    def test_replacement_rejects_negative_bump(self, factory):
        account = Account("dave")
        original = factory.transfer(account, gas_price=1000)
        with pytest.raises(TransactionError):
            factory.replacement(original, -0.1)

    def test_future_has_nonce_gap(self, factory):
        account = Account("erin")
        future = factory.future(account, gas_price=100, nonce_gap=1000, index=3)
        assert future.nonce == 1003

class TestWallet:
    def test_accounts_are_cached_by_label(self):
        wallet = Wallet("w")
        assert wallet.account("x") is wallet.account("x")

    def test_fresh_accounts_are_distinct(self):
        wallet = Wallet("w")
        accounts = wallet.fresh_accounts(10)
        assert len({a.address for a in accounts}) == 10

    def test_two_wallets_never_collide(self):
        a = Wallet("a").account("same-label")
        b = Wallet("b").account("same-label")
        assert a.address != b.address

    def test_addresses_are_hex(self):
        account = Wallet("w").fresh_account()
        assert account.address.startswith("0x")
        assert len(account.address) == 42
