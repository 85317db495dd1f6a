"""Tests for the crawler-style training module."""

from repro.core.septic import Mode, Septic
from repro.core.training import SepticTrainer
from repro.apps.waspmon import WaspMon
from repro.sqldb.engine import Database


def make_stack():
    septic = Septic(mode=Mode.TRAINING)
    database = Database(septic=septic)
    app = WaspMon(database)
    return septic, app


class TestCrawl(object):
    def test_crawl_covers_every_form(self):
        septic, app = make_stack()
        trainer = SepticTrainer(app, septic)
        crawled = {(r.method, r.path) for r in trainer.crawl()}
        for form in app.forms:
            assert (form.method, form.path) in crawled

    def test_crawl_includes_parameterless_gets(self):
        septic, app = make_stack()
        trainer = SepticTrainer(app, septic)
        paths = {r.path for r in trainer.crawl() if not r.params}
        assert "/" in paths
        assert "/feedback/list" in paths

    def test_crawl_uses_benign_samples(self):
        septic, app = make_stack()
        trainer = SepticTrainer(app, septic)
        login = next(r for r in trainer.crawl() if r.path == "/login")
        assert login.params == {"username": "alice", "password": "alicepw"}


class TestTrain(object):
    def test_training_learns_models(self):
        septic, app = make_stack()
        report = SepticTrainer(app, septic).train()
        assert report.models_learned > 10
        assert report.failures == []

    def test_second_pass_learns_nothing_new(self):
        septic, app = make_stack()
        trainer = SepticTrainer(app, septic)
        trainer.train()
        assert trainer.train().models_learned == 0

    def test_set_prevention(self):
        septic, app = make_stack()
        SepticTrainer(app, septic).train(set_prevention=True)
        assert septic.mode == Mode.PREVENTION

    def test_restores_previous_mode(self):
        septic, app = make_stack()
        trainer = SepticTrainer(app, septic)
        trainer.train()
        septic.mode = Mode.DETECTION
        trainer.train()
        assert septic.mode == Mode.DETECTION

    def test_trained_app_replays_clean_in_prevention(self):
        septic, app = make_stack()
        SepticTrainer(app, septic).train(passes=1, set_prevention=True)
        for request in app.benign_requests():
            response = app.handle(request)
            assert response.status < 500, (request, response.body)
        assert septic.stats.attacks_detected == 0


class TestTrainWithRequests(object):
    def test_workload_based_training(self):
        from repro.apps import ZeroCMS

        septic = Septic(mode=Mode.TRAINING)
        app = ZeroCMS(Database(septic=septic))
        trainer = SepticTrainer(app, septic)
        report = trainer.train(requests=app.workload_requests(),
                               set_prevention=True)
        assert report.models_learned > 5
        assert septic.mode == Mode.PREVENTION
        for request in app.workload_requests():
            assert app.handle(request).status == 200
        assert septic.stats.attacks_detected == 0

    def test_restores_mode_like_crawler_variant(self):
        from repro.apps import ZeroCMS

        septic = Septic(mode=Mode.TRAINING)
        app = ZeroCMS(Database(septic=septic))
        trainer = SepticTrainer(app, septic)
        septic.mode = Mode.DETECTION
        trainer.train(requests=app.workload_requests())
        assert septic.mode == Mode.DETECTION
