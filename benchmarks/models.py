"""Plain-Python models of the corpus programs the monitor_replay and
cli_commands workloads drive, used as their oracle.

The models restate the contracts of `account`, `account_overflow_mutant`,
`account_noguard_mutant` and the ENCLAVE_OPERS / ID_STATION classes of
`tokeneer_enrolment` by hand. They predict the outcome of every scenario
command, the final object states, and the full set of falsifying
assignments of the account mutants' Failed obligations, without calling
miniproof.
"""

from __future__ import annotations

import random

# -- account ---------------------------------------------------------------------

# The overflow mutant's deposit computes ((balance + amount) + amount) - amount;
# the monitor checks each node in that order.
DEPOSIT_NODES = ("balance + amount", "balance + amount + amount", "balance + amount + amount - amount")
WITHDRAW_NODE = "balance - amount"
WIDTH8 = (-128, 127)


class Account:
    """ACCOUNT of the corpus; with bounds, the overflow mutant under
    width-bounded arithmetic monitoring."""

    def __init__(self, bounds: tuple[int, int] | None = None):
        self.bounds = bounds
        self.balance = 0

    def _overflow(self, values, labels):
        if self.bounds is None:
            return None
        lo, hi = self.bounds
        for v, label in zip(values, labels):
            if not lo <= v <= hi:
                return f"violation overflow {label}"
        return None

    def deposit(self, amount: int) -> str:
        if amount < 0:
            return "violation precondition amount_not_negative"
        b = self.balance
        bad = self._overflow((b + amount, b + 2 * amount, b + amount), DEPOSIT_NODES)
        if bad:
            return bad
        self.balance = b + amount
        return "ok"

    def withdraw(self, amount: int) -> str:
        if amount > self.balance:
            return "violation precondition enough_balance"
        bad = self._overflow((self.balance - amount,), (WITHDRAW_NODE,))
        if bad:
            return bad
        self.balance -= amount
        return "ok"

    def fields(self) -> dict:
        return {"balance": self.balance}


# -- tokeneer --------------------------------------------------------------------

VALID = "valid_enrolment_data"
DISPLAY_POOL = {"blank", "insert_enrolment_data", "welcome", "remove_token", "system_busy"}


class EnclaveOpers:
    def __init__(self):
        self.status = "not_enrolled"
        self.floppy = "absent"
        self.screen = "blank"
        self.display = "blank"
        self.data = "blank"

    def call(self, feature: str, args: list) -> str:
        def need(*checks):
            for ok, label in checks:
                if not ok:
                    return f"violation precondition {label}"
            return None

        if feature == "request_enrolment":
            bad = need(
                (self.status == "not_enrolled", "station_not_enrolled"),
                (self.floppy == "absent", "no_floppy_present"),
            )
            if not bad:
                self.screen, self.display = "insert_enrolment_data", "blank"
        elif feature == "insert_floppy":
            bad = need((args[0] is not None, "data_exists"), (self.floppy == "absent", "no_floppy_present"))
            if not bad:
                self.floppy, self.data = "present", args[0]
        elif feature == "read_enrolment_data":
            bad = need(
                (self.floppy == "present", "floppy_present"),
                (self.status == "not_enrolled", "station_not_enrolled"),
            )
            if not bad:
                self.status, self.screen = "validating", "system_busy"
        elif feature == "validate_enrolment_ok":
            bad = need((self.status == "validating", "station_validating"), (self.data == VALID, "data_is_valid"))
            if not bad:
                self.status, self.screen, self.display = "enrolled", "welcome", "welcome"
        elif feature == "validate_enrolment_fail":
            bad = need(
                (self.status == "validating", "station_validating"),
                (self.data != VALID, "data_not_valid"),
            )
            if not bad:
                self.status, self.floppy = "not_enrolled", "absent"
                self.screen = self.display = self.data = "blank"
        else:
            raise ValueError(feature)
        return bad or "ok"

    def fields(self) -> dict:
        return {
            "constants": {"ref": "CONST"},
            "enclave_status": self.status,
            "floppy_presence": self.floppy,
            "current_screen_msg": self.screen,
            "current_display": self.display,
            "floppy_data": self.data,
            "key_store_version": 0,
            "audit_log_version": 0,
            "internal_version": 0,
        }


class IdStation:
    def __init__(self):
        self.display = "blank"

    def call(self, feature: str, args: list) -> str:
        if feature == "set_current_display":
            if args[0] not in DISPLAY_POOL:
                return "violation precondition require_1"
            self.display = args[0]
            return "ok"
        if feature == "update_screen":
            return "ok" if args[0] is not None else "violation precondition message_exists"
        raise ValueError(feature)

    def fields(self) -> dict:
        return {
            "constants": {"ref": "CONST"},
            "current_screen": {"ref": "SCREEN_DISPLAY"},
            "current_display": self.display,
            "enclave_status": "not_enrolled",
            "floppy_presence": "absent",
            "token_removal_timeout": 0,
            "cons_floppy": {"ref": "FLOPPY"},
            "cons_internal": {"ref": "INTERNAL_S"},
        }


# -- scenarios -------------------------------------------------------------------


def _literal(v) -> str:
    if v is None:
        return "Void"
    if isinstance(v, str):
        return f'"{v}"'
    return str(v)


class Scenario:
    """Script text plus what the model predicts for it."""

    def __init__(self, program: str, lines: list[str], outcomes: list[str], objects: dict):
        self.program = program  # corpus entry name
        self.text = "\n".join(lines) + "\n"
        self.outcomes = outcomes
        self.objects = objects


class _Script:
    def __init__(self):
        self.lines: list[str] = []
        self.outcomes: list[str] = []

    def step(self, command: str, outcome: str):
        self.lines.append(command)
        self.outcomes.append(outcome)
        if outcome == "ok":
            self.lines.append("expect_ok")
        else:
            self.lines.append("expect_violation " + outcome.split(" ", 2)[2])


def account_scenario(rng: random.Random, program: str, length: int) -> Scenario:
    bounds = WIDTH8 if program == "account_overflow_mutant" else None
    big = 70 if bounds else 400
    model = Account(bounds)
    s = _Script()
    s.step("create acc : ACCOUNT", "ok")
    for _ in range(length - 1):
        roll = rng.random()
        if roll < 0.5:
            amount = rng.randint(-3, big)
            s.step(f"call acc.deposit({amount})", model.deposit(amount))
        else:
            amount = rng.randint(-big // 4, model.balance + 10)
            s.step(f"call acc.withdraw({amount})", model.withdraw(amount))
    return Scenario(program, s.lines, s.outcomes, {"acc": model.fields()})


_FLOPPY_DATA = (VALID, VALID, "blank", "corrupt_data", None)
_DISPLAY_ARGS = ("welcome", "blank", "system_busy", "remove_token", "not_a_message", None)


def tokeneer_scenario(rng: random.Random, length: int) -> Scenario:
    """Random walks over the enrolment protocol on several fresh
    ENCLAVE_OPERS objects, with ID_STATION display updates mixed in."""
    s = _Script()
    objects: dict = {}

    def fresh(var, cls):
        objects[var] = EnclaveOpers() if cls == "ENCLAVE_OPERS" else IdStation()
        s.step(f"create {var} : {cls}", "ok")

    for k in range(3):
        fresh(f"ops{k}", "ENCLAVE_OPERS")
    fresh("station", "ID_STATION")
    protocol = ("request_enrolment", "insert_floppy", "read_enrolment_data")
    while len(s.outcomes) < length:
        roll = rng.random()
        if roll < 0.05:
            fresh(f"ops{rng.randrange(3)}", "ENCLAVE_OPERS")
            continue
        if roll < 0.15:
            feature = rng.choice(("set_current_display", "update_screen"))
            arg = rng.choice(_DISPLAY_ARGS)
            outcome = objects["station"].call(feature, [arg])
            s.step(f"call station.{feature}({_literal(arg)})", outcome)
            continue
        var = f"ops{rng.randrange(3)}"
        model = objects[var]
        if roll < 0.75:
            # mostly follow the protocol from the object's current state
            if model.status == "validating":
                feature = "validate_enrolment_ok" if model.data == VALID else "validate_enrolment_fail"
            elif model.floppy == "present":
                feature = "read_enrolment_data"
            else:
                feature = protocol[rng.randrange(2)]
        else:
            feature = rng.choice(protocol + ("validate_enrolment_ok", "validate_enrolment_fail"))
        args = [rng.choice(_FLOPPY_DATA)] if feature == "insert_floppy" else []
        outcome = model.call(feature, args)
        rendered = ", ".join(_literal(a) for a in args)
        s.step(f"call {var}.{feature}({rendered})", outcome)
    return Scenario(
        "tokeneer_enrolment", s.lines, s.outcomes, {v: m.fields() for v, m in objects.items()}
    )


# -- falsifier sets --------------------------------------------------------------


def falsifiers() -> dict[tuple[str, str], list[dict]]:
    """(corpus entry, obligation id) -> every falsifying assignment, in
    lexicographic order, of each Failed obligation of the account mutants
    at their manifest options."""
    out: dict[tuple[str, str], list[dict]] = {}
    small = range(-8, 9)
    out[("account_noguard_mutant", "ACCOUNT.deposit.invariant_maintenance.0")] = [
        {"amount": a, "balance": b} for a in small for b in small if b >= 0 and b + a < 0
    ]
    lo, hi = WIDTH8
    wide = range(lo, hi + 1)
    nodes = {
        "ACCOUNT.deposit.overflow.0": lambda a, b: b + a,
        "ACCOUNT.deposit.overflow.1": lambda a, b: b + a + a,
        "ACCOUNT.deposit.overflow.2": lambda a, b: b + a + a - a,
    }
    for oid, node in nodes.items():
        out[("account_overflow_mutant", oid)] = [
            {"amount": a, "balance": b}
            for a in wide
            for b in wide
            if b >= 0 and a >= 0 and not lo <= node(a, b) <= hi
        ]
    out[("account_overflow_mutant", "ACCOUNT.withdraw.overflow.0")] = [
        {"amount": a, "balance": b}
        for a in wide
        for b in wide
        if b >= 0 and a <= b and not lo <= b - a <= hi
    ]
    return out
