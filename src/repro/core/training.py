"""The septic training module (paper §II-E, training-mode bullet).

"This module runs externally to SEPTIC [...] It works like a crawler,
navigating in the application looking for forms, to then inject benign
inputs that eventually are inserted in queries transmitted to MySQL."

:class:`SepticTrainer` does exactly that against a
:class:`repro.web.app.WebApplication`: it discovers the declared forms
and the parameterless GET routes, submits each form's benign samples, and
repeats for a configurable number of passes (a second pass demonstrates
that an already-learned query creates no second model).
"""

from repro.core.septic import Mode
from repro.web.http import Request


class TrainingReport(object):
    """What one training run did."""

    __slots__ = ("requests_sent", "models_before", "models_after",
                 "failures")

    def __init__(self, requests_sent, models_before, models_after, failures):
        self.requests_sent = requests_sent
        self.models_before = models_before
        self.models_after = models_after
        self.failures = failures

    @property
    def models_learned(self):
        return self.models_after - self.models_before

    def __repr__(self):
        return "TrainingReport(%d requests, %d new models, %d failures)" % (
            self.requests_sent, self.models_learned, len(self.failures)
        )


class SepticTrainer(object):
    """Crawler-style trainer: forms in, query models out."""

    def __init__(self, app, septic):
        self.app = app
        self.septic = septic

    def crawl(self):
        """Discover training requests: every declared form with its benign
        samples, plus every GET route that needs no parameters."""
        requests = []
        form_paths = {(form.method, form.path) for form in self.app.forms}
        for method, path in self.app.routes():
            if method == "GET" and (method, path) not in form_paths:
                requests.append(Request.get(path))
        for form in self.app.forms:
            requests.append(
                Request(form.method, form.path, form.benign_params())
            )
        return requests

    def train(self, passes=1, set_prevention=False, requests=None):
        """Run the crawler — or replay *requests* — in training mode.

        Ensures SEPTIC is in training mode for the duration; optionally
        switches it to prevention afterwards (the demo's phase C → D
        transition).  An explicit request list covers the paper's other
        training triggers: "application unit tests" or queries issued
        "manually by the programmer" — any recorded request sequence
        works (e.g. a BenchLab workload).  Returns a
        :class:`TrainingReport`.
        """
        previous_mode = self.septic.mode
        if previous_mode != Mode.TRAINING:
            self.septic.mode = Mode.TRAINING
        models_before = len(self.septic.store)
        sent = 0
        failures = []
        for _ in range(max(passes, 1)):
            for request in (self.crawl() if requests is None else requests):
                response = self.app.handle(request)
                sent += 1
                if response.status >= 500:
                    failures.append((request, response))
        models_after = len(self.septic.store)
        if set_prevention:
            self.septic.mode = Mode.PREVENTION
        elif previous_mode != Mode.TRAINING:
            self.septic.mode = previous_mode
        return TrainingReport(sent, models_before, models_after, failures)
