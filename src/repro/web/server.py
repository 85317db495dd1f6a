"""The web server front door (the demo's Apache).

A :class:`WebServer` wraps an application and optionally a WAF
(ModSecurity): incoming requests are checked by the WAF *before* they
reach the application — the placement the paper draws in Figure 6.

The server can also front its database over the wire
(:meth:`serve_net`): starting it binds a
:class:`repro.net.server.NetServer` on the application's database, so
external drivers (benchlab, the CLI, the throughput bench) reach the
very same engine+SEPTIC pipeline through real sockets — the
client/server deployment shape of the paper's testbed.
"""

from repro.web.http import Response


class WebServer(object):
    """Apache-alike: WAF first, application second."""

    def __init__(self, app, waf=None):
        self.app = app
        self.waf = waf
        #: the socket front end started by :meth:`serve_net` (or None)
        self.net_server = None
        self.requests_served = 0
        self.requests_blocked = 0

    def handle(self, request):
        """Process one request, returning a :class:`Response`."""
        self.requests_served += 1
        if self.waf is not None and self.waf.enabled:
            verdict = self.waf.evaluate(request)
            if verdict.blocked:
                self.requests_blocked += 1
                return Response.forbidden(
                    "Request blocked by %s (rule %s, score %d)"
                    % (self.waf.name, verdict.rule_ids, verdict.score)
                )
        return self.app.handle(request)

    # -- the socket front end ---------------------------------------------

    def serve_net(self, host="127.0.0.1", port=0, **server_options):
        """Start serving the application's database over the wire
        protocol; returns ``(host, port)``.  The NetServer installs its
        connection counters on the database, so they show up in
        ``Septic.status()`` under ``"net"``."""
        if self.net_server is not None:
            raise RuntimeError("a net server is already attached")
        database = getattr(self.app, "database", None)
        if database is None:
            raise RuntimeError("the application exposes no database")
        from repro.net.server import NetServer

        self.net_server = NetServer(database, host=host, port=port,
                                    **server_options)
        return self.net_server.start()

    def stop_net(self):
        """Stop the socket front end (no-op when none is attached)."""
        if self.net_server is not None:
            self.net_server.stop()
            self.net_server = None

    def restart(self, hard=False):
        """The demo restarts Apache when toggling ModSecurity; restarting
        only resets counters here (state lives in the app/database).

        ``hard=True`` bounces the whole stack, DBMS included: the
        database is rebuilt from its data directory through the
        crash-recovery path, SEPTIC reloads its persisted query models,
        and the socket front end (when attached) drops every wire
        connection and rebinds.  Requires the database to have
        durability attached (a no-op for a purely in-memory stack).
        """
        self.requests_served = 0
        self.requests_blocked = 0
        if not hard:
            return
        database = getattr(self.app, "database", None)
        if database is None or database.data_dir is None:
            return
        net_server = self.net_server
        host, port = None, None
        if net_server is not None:
            # wire clients do not survive a server bounce: drop them
            # all, recover the engine, then rebind on the same port
            host, port = net_server.host, net_server.port
            self.stop_net()
        database.reopen()
        septic = getattr(database, "septic", None)
        if septic is not None and hasattr(septic, "reload_models"):
            septic.reload_models()
        if net_server is not None:
            self.serve_net(host=host, port=port)
